# Development gate for the freqdedup reproduction. `make check` is what CI
# (and every PR) must keep green.

GO ?= go

.PHONY: check fmt vet staticcheck build test race faults bench bench-smoke bench-gate bench-test

check: fmt vet staticcheck build race faults bench-smoke bench-gate bench-test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis; degrades to a notice on machines without the binary
# (go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second to sixth lines are scripts/check.sh's flake guards, five
# runs each: the remote Backup's sender/receiver handoff, the backup
# pipeline's worker pool (teardown, determinism, sinks, streaming), the
# parent table, whose sums the consumer writes and pool workers read, and
# the open container's arena views across a seal, the arena's block recycling,
# the chunker's parallel boundary scan against its references and its
# parallel check of predicted runs, and the overlapped seal pass (its
# fsyncs on the real disk, and its crash clock on the fault filesystem). scripts/race-guard.sh fails a guard whose
# -run pattern has an alternative that lists no test.
race:
	$(GO) test -race ./...
	GO=$(GO) scripts/race-guard.sh 'RoundTrip|Cancel|EmptyBackup|Inflight|ParentHit' ./internal/server/
	GO=$(GO) scripts/race-guard.sh 'Cancel|Deterministic|Sink|Streaming|Teardown|ParentTable|ViewsSurviveSeal' ./internal/dedup/
	GO=$(GO) scripts/race-guard.sh 'Arena|MemBackendStore' ./internal/container/
	GO=$(GO) scripts/race-guard.sh 'ParallelScan|Reference|Predict' ./internal/chunker/
	GO=$(GO) scripts/race-guard.sh 'SealPass|CrashClock' .

# Exhaustive crash-point sweep under the race detector: crash the
# scripted backup/delete/GC/backup scenario at EVERY mutating filesystem
# operation and check the full recovery invariant set after each. The
# bounded version of the same sweep runs in every plain `go test`; this
# target (and scripts/check.sh, and CI) runs it unbounded.
faults:
	FAULTS_FULL=1 $(GO) test -race -run 'TestCrashSweep' .

# Full baseline run: writes BENCH_<date>.json (see scripts/bench.sh).
bench:
	scripts/bench.sh

# One iteration of every tracked benchmark so `make check` catches
# benchmark rot; the pattern lives in scripts/bench.sh.
bench-smoke:
	scripts/bench.sh --smoke

# Stable-tier performance-regression gate: three pinned iterations of the
# chunker/backup/restore/store benchmarks compared against the newest
# committed BENCH_*.json (>20% MB/s loss fails; see cmd/benchgate).
bench-gate:
	$(GO) run ./cmd/benchgate

# The end-to-end benchmark (bench/, BENCHMARK.json) is its own Go module,
# which `go test ./...` at the root does not reach; this runs its tests.
bench-test:
	cd bench && $(GO) test ./...
