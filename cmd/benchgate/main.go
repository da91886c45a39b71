// Command benchgate is the CI performance-regression gate: it compares a
// fresh benchmark run against the committed BENCH_*.json baselines and
// exits nonzero when a benchmark in the stable tier lost more than the
// threshold (default 20%) of its MB/s throughput.
//
// The stable tier is the allowlist of benchmarks measured stable enough
// to block a PR: the chunker ingest stage, the backup pipeline, the
// multi-tenant server path (BenchmarkServerBackup's loopback client
// sweep), the planned restore, the sharded store, and the persistent
// fingerprint index (BenchmarkRepositoryOpen's open-throughput sweep and
// BenchmarkIndexLookup's hit/miss paths). Everything else in the
// baselines is reported as an informational delta but never gates —
// attack-engine and generator timings are too sensitive to shared-runner
// noise to block on.
//
// Comparison rules:
//
//   - The two newest committed BENCH_*.json files are loaded; each stable
//     benchmark gates against the NEWEST baseline that has it — the most
//     recently accepted performance state — while the older file only
//     feeds the printed deltas (context for slow drift across PRs).
//
//   - A baseline recorded on a different CPU model is demoted to advisory
//     (deltas printed, never fatal): cross-hardware timing deltas are not
//     regressions. Baselines without a "cpu" field (older format) gate as
//     before.
//
//   - A benchmark present in the fresh run but in no baseline is "new" —
//     reported, never gated. One present only in baselines is "gone" —
//     reported, never gated (renames land with their own baseline).
//
//   - The fresh suite runs -repeat times (pinned iteration counts, so the
//     runtime is bounded) and each benchmark keeps its BEST run: noise on
//     a shared runner lowers individual runs, a real regression lowers
//     the best achievable. The counterpart on the baseline side is
//     scripts/bench.sh, which records each benchmark's WORST observed
//     MB/s across its repeats — best-of fresh against floor-of baseline
//     gives the gate its noise margin on oscillating shared runners.
//
//     benchgate                    # run the stable tier (best of 3 x 10 iterations) and gate
//     benchgate -benchtime 20x     # more iterations per run, steadier numbers
//     benchgate -repeat 5          # more runs, lower flake floor
//     benchgate -threshold 0.3     # tolerate 30%
//     benchgate -input bench.txt   # gate a pre-recorded `go test -bench` output
//
// The pairs subcommand measures a change end to end instead: it checks a
// base revision out into a git worktree under .bench_build/, runs the
// end-to-end benchmark (bench/run.sh) of the base and of the working tree
// in alternating pairs, and prints, per workload and BENCHMARK.json
// end-to-end metric, each side's median and quartiles, the change of the
// medians against the metric's bound, the pairs the working tree won, and
// the failed operations of each side:
//
//	benchgate pairs -base HEAD~1 -workloads local-full -pairs 10 -seconds 6
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// stableTier matches the benchmarks allowed to block a PR. The patterns
// anchor at the start of the benchmark name (after the GOMAXPROCS suffix
// is stripped); sub-benchmarks (e.g. BenchmarkStoreShards/shards=4) are
// matched by their full slash-joined name.
var stableTier = []*regexp.Regexp{
	regexp.MustCompile(`^BenchmarkChunker`),
	regexp.MustCompile(`^BenchmarkBackup(Serial|Parallel)$`),
	regexp.MustCompile(`^BenchmarkServerBackup`),
	regexp.MustCompile(`^BenchmarkRestore(Serial|Parallel|File)$`),
	regexp.MustCompile(`^BenchmarkStoreShards`),
	regexp.MustCompile(`^BenchmarkRepositoryOpen`),
	regexp.MustCompile(`^BenchmarkIndexLookup`),
}

// benchPattern is the -bench regexp handed to go test for the fresh run:
// the stable tier only, so the gate stays fast enough to block on.
const benchPattern = `BenchmarkChunker|BenchmarkBackupSerial|BenchmarkBackupParallel|BenchmarkServerBackup|BenchmarkRestoreSerial|BenchmarkRestoreParallel|BenchmarkRestoreFile|BenchmarkStoreShards|BenchmarkRepositoryOpen|BenchmarkIndexLookup`

func inStableTier(name string) bool {
	for _, re := range stableTier {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// gomaxprocsSuffix strips the trailing "-N" GOMAXPROCS suffix go test
// appends to benchmark names (absent when GOMAXPROCS=1, so baselines and
// fresh runs from different machines still line up).
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func canonicalName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// baseline is one committed BENCH_<date>.json.
type baseline struct {
	Path       string
	Date       string            `json:"date"`
	Go         string            `json:"go"`
	CPU        string            `json:"cpu"`
	Gomaxprocs int               `json:"gomaxprocs"`
	Benchmarks []json.RawMessage `json:"benchmarks"`

	mbps     map[string]float64 // canonical name -> MB/s
	advisory bool               // different CPU: report, never gate
}

func loadBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &baseline{Path: path, mbps: make(map[string]float64)}
	if err := json.Unmarshal(raw, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, entry := range b.Benchmarks {
		var fields map[string]any
		if err := json.Unmarshal(entry, &fields); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name, _ := fields["name"].(string)
		mbps, ok := fields["MB/s"].(float64)
		if name == "" || !ok {
			continue // benchmark without a throughput metric: nothing to gate
		}
		b.mbps[canonicalName(name)] = mbps
	}
	return b, nil
}

// findBaselines returns the newest two BENCH_*.json in dir (sorted by the
// date embedded in the file name, newest first).
func findBaselines(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths))) // BENCH_YYYYMMDD sorts by date
	if len(paths) > 2 {
		paths = paths[:2]
	}
	return paths, nil
}

// parseBenchOutput extracts canonical-name -> MB/s from `go test -bench`
// output. Lines without an MB/s column are ignored.
func parseBenchOutput(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "MB/s" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad MB/s in %q: %w", sc.Text(), err)
				}
				out[canonicalName(fields[0])] = v
			}
		}
	}
	return out, sc.Err()
}

// delta is one compared benchmark.
type delta struct {
	Name     string
	Base     float64 // best baseline MB/s
	Fresh    float64
	Gating   bool // stable tier AND at least one non-advisory baseline had it
	Regessed bool
}

// compare builds per-benchmark deltas of fresh against the newest gating
// baseline holding each benchmark (baselines are ordered newest first;
// advisory baselines feed display only). threshold is fractional: 0.20
// fails a benchmark below 80% of baseline.
func compare(baselines []*baseline, fresh map[string]float64, threshold float64) []delta {
	names := make(map[string]bool)
	for name := range fresh {
		names[name] = true
	}
	for _, b := range baselines {
		for name := range b.mbps {
			names[name] = true
		}
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)

	var deltas []delta
	for _, name := range ordered {
		d := delta{Name: name, Fresh: fresh[name]}
		gatingBase, anyBase := 0.0, 0.0
		for _, b := range baselines { // newest first
			v, ok := b.mbps[name]
			if !ok {
				continue
			}
			if anyBase == 0 {
				anyBase = v
			}
			if !b.advisory && gatingBase == 0 {
				gatingBase = v
			}
		}
		if _, inFresh := fresh[name]; !inFresh {
			d.Base = anyBase
			deltas = append(deltas, d) // gone: report only
			continue
		}
		if gatingBase > 0 && inStableTier(name) {
			d.Base = gatingBase
			d.Gating = true
			d.Regessed = d.Fresh < gatingBase*(1-threshold)
		} else {
			d.Base = anyBase
		}
		deltas = append(deltas, d)
	}
	return deltas
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pairs" {
		if err := runPairs(os.Args[2:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate pairs:", err)
			os.Exit(2)
		}
		return
	}
	benchtime := flag.String("benchtime", "10x", "go test -benchtime for each fresh run (pinned iterations keep the runtime bounded)")
	repeat := flag.Int("repeat", 3, "fresh suite runs; each benchmark keeps its best run")
	threshold := flag.Float64("threshold", 0.20, "fractional MB/s loss that fails the gate")
	input := flag.String("input", "", "pre-recorded `go test -bench` output to gate instead of running benchmarks")
	dir := flag.String("dir", ".", "repository root holding the BENCH_*.json baselines")
	rawOut := flag.String("rawout", "", "also write the fresh runs' raw benchmark output to this file (CI artifact)")
	flag.Parse()

	if err := run(*dir, *benchtime, *input, *rawOut, *threshold, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
}

func run(dir, benchtime, input, rawOut string, threshold float64, repeat int) error {
	paths, err := findBaselines(dir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		fmt.Println("benchgate: no BENCH_*.json baselines; nothing to gate (run scripts/bench.sh to create one)")
		return nil
	}
	curCPU := cpuModel()
	var baselines []*baseline
	for _, p := range paths {
		b, err := loadBaseline(p)
		if err != nil {
			return err
		}
		if b.CPU != "" && curCPU != "" && b.CPU != curCPU {
			b.advisory = true
			fmt.Printf("note: %s was recorded on %q (this machine: %q) — advisory only\n", p, b.CPU, curCPU)
		}
		baselines = append(baselines, b)
		fmt.Printf("baseline: %s (%d throughput benchmarks)\n", p, len(b.mbps))
	}

	var fresh map[string]float64
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		fresh, err = parseBenchOutput(f)
		if err != nil {
			return err
		}
	} else {
		if repeat < 1 {
			repeat = 1
		}
		fresh = make(map[string]float64)
		var raw []byte
		for i := 0; i < repeat; i++ {
			fmt.Printf("fresh run %d/%d: go test -run=NONE -bench <stable tier> -benchtime=%s .\n", i+1, repeat, benchtime)
			cmd := exec.Command("go", "test", "-run=NONE", "-bench", benchPattern, "-benchtime", benchtime, ".")
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			raw = append(raw, out...)
			if err != nil {
				os.Stdout.Write(out)
				return fmt.Errorf("fresh benchmark run failed: %w", err)
			}
			got, err := parseBenchOutput(strings.NewReader(string(out)))
			if err != nil {
				return err
			}
			for name, v := range got {
				if v > fresh[name] {
					fresh[name] = v
				}
			}
		}
		if rawOut != "" {
			if err := os.WriteFile(rawOut, raw, 0o644); err != nil {
				return err
			}
		}
	}
	if len(fresh) == 0 {
		return fmt.Errorf("fresh run produced no MB/s benchmarks")
	}

	failed := 0
	for _, d := range compare(baselines, fresh, threshold) {
		switch {
		case d.Fresh == 0:
			fmt.Printf("  gone  %-44s baseline %8.1f MB/s\n", d.Name, d.Base)
		case d.Base == 0:
			fmt.Printf("  new   %-44s %8.1f MB/s\n", d.Name, d.Fresh)
		default:
			pct := (d.Fresh - d.Base) / d.Base * 100
			tag := "info "
			if d.Gating {
				tag = "ok   "
			}
			if d.Regessed {
				tag = "FAIL "
				failed++
			}
			fmt.Printf("  %s %-44s %8.1f -> %8.1f MB/s  (%+.1f%%)\n", tag, d.Name, d.Base, d.Fresh, pct)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d stable-tier benchmark(s) regressed more than %.0f%%\n", failed, threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK (threshold %.0f%%)\n", threshold*100)
	return nil
}

// cpuModel reads the CPU model name, mirroring scripts/bench.sh's header
// field; empty when unavailable (the guard then stays silent).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
