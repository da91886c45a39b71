#!/bin/sh
# One flake guard: go test -race -count=5 -run PATTERN PKG.
#
# Before the run, each |-separated alternative of PATTERN must list at
# least one test, example or fuzz target of PKG under go test -list, so a
# renamed or deleted test cannot silently empty its guard; otherwise the
# guard fails naming the alternative and its pattern. GO selects the go
# command (default go).
#
# Usage: scripts/race-guard.sh PATTERN PKG
set -uf

go=${GO:-go}
pattern=$1
pkg=$2

IFS='|'
for alt in $pattern; do
	unset IFS
	list="$($go test -list "$alt" "$pkg")" || exit 1
	if ! printf '%s\n' "$list" | grep -qE '^(Test|Example|Fuzz)'; then
		echo "race guard: '$alt' of -run '$pattern' lists no test in $pkg" >&2
		exit 1
	fi
done
unset IFS

exec $go test -race -count=5 -run "$pattern" "$pkg"
