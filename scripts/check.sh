#!/bin/sh
# Full development gate: formatting, vet, build, race tests, bench smoke.
# Equivalent to `make check` for environments without make, and the exact
# command CI runs (.github/workflows/ci.yml).
#
# Each stage fails fast with a distinct exit message, so a red CI run
# names its stage in the last line. GOFLAGS is honored untouched: export
# e.g. GOFLAGS=-count=1 to defeat test caching. Set CHECK_SKIP_BENCH=1 to
# skip the bench smoke stage (CI runs it as a separate non-blocking job),
# CHECK_SKIP_BENCHGATE=1 to skip the stable-tier performance-regression
# gate (cmd/benchgate; CI runs it as its own blocking job),
# CHECK_SKIP_BENCHTESTS=1 to skip the end-to-end benchmark module's own
# tests (bench/ is a separate Go module that `go test ./...` at the root
# does not reach; its vet and build always run),
# CHECK_SKIP_SCENARIOS=1 to skip the workload scenario-matrix smoke,
# CHECK_SKIP_SERVER=1 to skip the multi-tenant server smoke (loopback
# TCP tenants through the wire protocol, checked against a serial run by
# TestServerConcurrentTenantsMatchSerial) and the
# remote Backup's sender/receiver flake guard,
# CHECK_SKIP_FAULTS=1 to skip the exhaustive crash-point sweep (the
# bounded sweep still runs inside go test -race),
# CHECK_SKIP_STATICCHECK=1 to skip static analysis, and CHECK_SKIP_VULN=1
# to skip the vulnerability scan; a missing staticcheck or govulncheck
# binary downgrades its stage to a notice rather than failing machines
# that never installed it (CI installs both on the stable leg).
set -u

cd "$(dirname "$0")/.."

fail() {
	echo "check: FAILED at stage: $1" >&2
	exit 1
}

echo "== gofmt"
diff="$(gofmt -d .)" || fail "gofmt (command failed)"
if [ -n "$diff" ]; then
	echo "$diff"
	fail "gofmt (apply the diff above with: gofmt -w .)"
fi

echo "== go vet"
go vet ./... || fail "go vet"

if [ "${CHECK_SKIP_STATICCHECK:-0}" != "1" ]; then
	if command -v staticcheck >/dev/null 2>&1; then
		echo "== staticcheck"
		staticcheck ./... || fail "staticcheck"
	else
		echo "== staticcheck (skipped: binary not installed; go install honnef.co/go/tools/cmd/staticcheck@latest)"
	fi
fi

if [ "${CHECK_SKIP_VULN:-0}" != "1" ]; then
	if command -v govulncheck >/dev/null 2>&1; then
		echo "== govulncheck"
		govulncheck ./... || fail "govulncheck"
	else
		echo "== govulncheck (skipped: binary not installed; go install golang.org/x/vuln/cmd/govulncheck@latest)"
	fi
fi

echo "== go build"
go build ./... || fail "go build"

# bench/ is its own module, so the root vet and build never compile it,
# and it is the only non-test caller of some library constructors.
echo "== bench module vet + build"
(cd bench && go vet ./... && go build ./...) || fail "bench module vet + build"

echo "== go test -race"
go test -race ./... || fail "go test -race"

# Each flake guard below runs through scripts/race-guard.sh, which first
# fails the guard if an alternative of its -run pattern lists no test.

# The backup pipeline's worker pool, producer and consumer hand chunks,
# batches and windows to each other; run the tests that drive those
# handoffs (teardown, determinism across worker counts, sinks, streaming
# readers, cancellation) five times over, with the parent table's tests
# (the consumer records the sums a later table holds, which pool workers
# read and write beside the chunks) and the test that holds the open
# container's arena views to copies across a seal.
echo "== backup pipeline flake guard (-race -count=5)"
scripts/race-guard.sh 'Cancel|Deterministic|Sink|Streaming|Teardown|ParentTable|ViewsSurviveSeal' ./internal/dedup/ || fail "backup pipeline flake guard"

# The open container's arena recycles its blocks only after a durable
# seal, keeps them through a failed one or a compaction, and hands them
# back on Close whatever the seal did.
echo "== container arena flake guard (-race -count=5)"
scripts/race-guard.sh 'Arena|MemBackendStore|CloseAfterFailedSeal' ./internal/container/ || fail "container arena flake guard"

# The buffer pool's size classes and its one outstanding count, which
# every leak check reads, from whatever goroutine gets and puts.
echo "== buffer pool flake guard (-race -count=5)"
scripts/race-guard.sh 'Class|Leak' ./internal/bufpool/ || fail "buffer pool flake guard"

# The chunker scans each lookahead refill in pieces on helper goroutines
# that claim pieces against the caller, and checks the hashes of a run of
# predicted cuts the same way; run the parallel scan's tests, the
# reference comparisons, which drive it, and the predicted-cut tests, at
# GOMAXPROCS 1 and 4, five times over.
echo "== parallel boundary scan and run check flake guard (-race -count=5)"
scripts/race-guard.sh 'ParallelScan|Reference|Predict' ./internal/chunker/ || fail "parallel boundary scan and run check flake guard"

# The seal pass that ends every backup overlaps its shards' fsyncs on
# goroutines on the real disk and runs them in order on the fault
# filesystem; run its on-disk tests and the pinned crash clock five
# times over.
echo "== seal pass flake guard (-race -count=5)"
scripts/race-guard.sh 'SealPass|CrashClock' . || fail "seal pass flake guard"

if [ "${CHECK_SKIP_FAULTS:-0}" != "1" ]; then
	echo "== crash-point sweep (exhaustive, -race)"
	FAULTS_FULL=1 go test -race -run 'TestCrashSweep' . || fail "crash-point sweep"
fi

if [ "${CHECK_SKIP_BENCH:-0}" != "1" ]; then
	echo "== bench smoke (-benchtime=1x)"
	scripts/bench.sh --smoke || fail "bench smoke"
fi

if [ "${CHECK_SKIP_BENCHGATE:-0}" != "1" ]; then
	echo "== bench gate (stable tier vs committed BENCH_*.json baselines)"
	go run ./cmd/benchgate || fail "bench gate (stable-tier throughput regression)"
fi

if [ "${CHECK_SKIP_BENCHTESTS:-0}" != "1" ]; then
	echo "== bench tests (the bench/ module's own go test)"
	(cd bench && go test ./...) || fail "bench tests"
fi

if [ "${CHECK_SKIP_SCENARIOS:-0}" != "1" ]; then
	echo "== scenario matrix smoke (tiny scale, every registered workload)"
	go run ./cmd/defend -fig scenarios -tiny || fail "scenario matrix smoke"
fi

if [ "${CHECK_SKIP_SERVER:-0}" != "1" ]; then
	echo "== server smoke (4 loopback tenants through the wire protocol)"
	go test -count=1 -run '^TestServerConcurrentTenantsMatchSerial$' . || fail "server smoke"
	# The remote Backup's sender (the pipeline's consumer) and receiver
	# hand windows, slots and the final TBackupDone to each other; a race
	# there has shown up in 1 run of 15, so run the handoff tests 5 times.
	echo "== server handoff flake guard (-race -count=5)"
	scripts/race-guard.sh 'RoundTrip|Cancel|EmptyBackup|Inflight|ParentHit' ./internal/server/ || fail "server handoff flake guard"
fi

echo "check: OK"
