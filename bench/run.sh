#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes (the
# Go build cache, the binary, the temporary repositories, the trace file)
# goes under .bench_build/ at the root of the checkout, which .gitignore
# names. In a directory without the repository's sources the build fails
# and this script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
# The revision is stamped into the binary where git can tell it.
(cd "$here" && { go build -o "$build/bench" . 2>/dev/null || go build -buildvcs=false -o "$build/bench" .; })
exec "$build/bench" -tmp "$build/tmp" "$@"
