package main

import (
	"bufio"
	"bytes"
	"debug/elf"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pairsUsage is the pairs subcommand's synopsis.
const pairsUsage = "usage: benchgate pairs -base <rev> [-workloads a,b,...] [-pairs N] [-seconds S] [-dir root]"

// benchSpec is what pairs reads of BENCHMARK.json: the workloads and the
// end-to-end metrics with their bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchLine is the last stdout line of one bench run: its JSON result.
type benchLine struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runner runs one bench pass of side ("base" or "head") and returns its
// last-line JSON. Tests inject one; runPairs uses the checkouts' run.sh.
type runner func(side, workload string, seed int, seconds float64) (benchLine, error)

// pairRow is one workload × metric row of the pair table.
type pairRow struct {
	Workload, Metric string
	Base, Head       [3]float64 // q1, median, q3
	DeltaPct         float64    // head against base, of the medians
	Bound            float64    // BENCHMARK.json's fractional bound
	Worse            bool       // the medians moved the wrong way past the bound
	Won, Pairs       int        // pairs in which head was better
	BaseFailed       int
	HeadFailed       int
}

// runPairs is `benchgate pairs`: the base revision is checked out into a
// git worktree under .bench_build/, both checkouts run bench/run.sh (which
// builds each side's binary from its own source), and the runs alternate
// pair by pair, seed i for pair i, the base first for odd seeds.
func runPairs(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "git revision to compare the working tree against")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload")
	seconds := fs.Float64("seconds", 6, "seconds each run measures (bench -seconds)")
	dir := fs.String("dir", ".", "repository root (holds BENCHMARK.json and bench/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 || *seconds <= 0 || fs.NArg() > 0 {
		return errors.New(pairsUsage)
	}
	spec, err := loadSpec(filepath.Join(*dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	names, err := pickWorkloads(spec, *workloads)
	if err != nil {
		return err
	}
	baseDir, err := checkoutBase(*dir, *base, stderr)
	if err != nil {
		return err
	}
	run := func(side, workload string, seed int, secs float64) (benchLine, error) {
		root := *dir
		if side == "base" {
			root = baseDir
		}
		fmt.Fprintf(stderr, "pairs: %s %s seed %d\n", side, workload, seed)
		return runBench(root, workload, seed, secs)
	}
	rows, err := collectPairs(run, spec, names, *pairs, *seconds)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "base %s against the working tree of %s: %d pairs of %g s per workload\n", *base, *dir, *pairs, *seconds)
	printPairs(stdout, rows)
	printLayout(stdout, layoutSymbol, filepath.Join(baseDir, ".bench_build", "bench"), filepath.Join(*dir, ".bench_build", "bench"))
	return nil
}

// layoutSymbol marks the bench binary's code layout. local-full's
// setup_s is mostly math/rand's Read over the inputs, and it has read
// 20-30 % slower when this function moved (code linked ahead of it grew),
// with no library work changed.
const layoutSymbol = "math/rand.read"

// printLayout prints the named symbol's address in each side's bench
// binary and marks a difference, so a setup_s change can be told from a
// layout shift.
func printLayout(w io.Writer, name, basePath, headPath string) {
	base, berr := symbolAddr(basePath, name)
	head, herr := symbolAddr(headPath, name)
	if berr != nil || herr != nil {
		fmt.Fprintf(w, "layout: %s: base %v, head %v\n", name, berr, herr)
		return
	}
	verdict := "same"
	if base != head {
		verdict = "MOVED: setup_s may measure the layout, not the change"
	}
	fmt.Fprintf(w, "layout: %s at %#x (base), %#x (head): %s\n", name, base, head, verdict)
}

// symbolAddr returns the address of the named symbol in the ELF file at
// path.
func symbolAddr(path, name string) (uint64, error) {
	f, err := elf.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for _, sym := range syms {
		if sym.Name == name {
			return sym.Value, nil
		}
	}
	return 0, fmt.Errorf("%s: no symbol %s", path, name)
}

// loadSpec reads BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// pickWorkloads resolves -workloads against the spec; empty means all.
func pickWorkloads(spec *benchSpec, list string) ([]string, error) {
	var all []string
	for _, w := range spec.Workloads {
		all = append(all, w.Name)
	}
	if list == "" {
		return all, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range all {
			found = found || w == name
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", name, strings.Join(all, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// checkoutBase makes sure .bench_build/base-<rev> under root is a git
// worktree at rev and returns its path. An existing one is moved to rev.
func checkoutBase(root, rev string, stderr io.Writer) (string, error) {
	sha, err := gitOutput(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return "", fmt.Errorf("resolve %s: %w", rev, err)
	}
	dir, err := filepath.Abs(filepath.Join(root, ".bench_build", "base-"+safeName(rev)))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(dir, ".git")); err == nil {
		_, err = gitOutput(dir, "checkout", "--detach", "--quiet", sha)
		return dir, err
	}
	fmt.Fprintf(stderr, "pairs: git worktree add %s %s\n", dir, sha)
	_, err = gitOutput(root, "worktree", "add", "--detach", "--quiet", dir, sha)
	return dir, err
}

// safeName turns a revision into a directory name.
func safeName(rev string) string {
	return strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == ':' || r == '~' || r == '^' {
			return '_'
		}
		return r
	}, rev)
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// runBench runs root's bench/run.sh once and parses its last stdout line.
func runBench(root, workload string, seed int, seconds float64) (benchLine, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
	cmd.Dir = root
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	line, perr := lastLine(out)
	if perr != nil {
		if err == nil {
			err = perr
		}
		return benchLine{}, fmt.Errorf("%s: %s seed %d: %w: %s", root, workload, seed, err, strings.TrimSpace(errb.String()))
	}
	// A run with failed operations exits 1 but still reports: the table
	// counts its failures.
	return line, nil
}

// lastLine parses the last non-empty line of a bench run's stdout.
func lastLine(out []byte) (benchLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var line benchLine
	if err := json.Unmarshal([]byte(last), &line); err != nil || line.Metrics == nil {
		return benchLine{}, fmt.Errorf("no result line in the run's output")
	}
	return line, nil
}

// collectPairs runs pairs alternating pairs of every workload and builds
// the table: one row per workload × end-to-end metric.
func collectPairs(run runner, spec *benchSpec, workloads []string, pairs int, seconds float64) ([]pairRow, error) {
	var rows []pairRow
	for _, w := range workloads {
		var base, head []benchLine
		for seed := 1; seed <= pairs; seed++ {
			order := []string{"head", "base"}
			if seed%2 == 1 {
				order = []string{"base", "head"}
			}
			for _, side := range order {
				line, err := run(side, w, seed, seconds)
				if err != nil {
					return nil, err
				}
				if side == "base" {
					base = append(base, line)
				} else {
					head = append(head, line)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			rows = append(rows, pairTableRow(w, m, base, head))
		}
	}
	return rows, nil
}

// pairTableRow summarizes one metric over a workload's pairs; base[i] and
// head[i] are pair i.
func pairTableRow(workload string, m specMetric, base, head []benchLine) pairRow {
	row := pairRow{Workload: workload, Metric: m.Name, Bound: m.Bound, Pairs: len(base)}
	var bv, hv []float64
	for i := range base {
		b, h := base[i].Metrics[m.Name].Value, head[i].Metrics[m.Name].Value
		bv, hv = append(bv, b), append(hv, h)
		if better(m, h, b) {
			row.Won++
		}
		row.BaseFailed += base[i].Failed
		row.HeadFailed += head[i].Failed
	}
	row.Base[0], row.Base[1], row.Base[2] = quartiles(bv)
	row.Head[0], row.Head[1], row.Head[2] = quartiles(hv)
	if row.Base[1] != 0 {
		row.DeltaPct = (row.Head[1] - row.Base[1]) / row.Base[1] * 100
	}
	worse := row.DeltaPct
	if m.Better == "higher" {
		worse = -worse
	}
	row.Worse = worse > m.Bound*100
	return row
}

// better reports whether a is strictly better than b under m.
func better(m specMetric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method of Python's statistics.quantiles(v, n=4), as the
// bench program computes them.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// printPairs writes the table, one line per workload × metric.
func printPairs(w io.Writer, rows []pairRow) {
	fmt.Fprintf(w, "%-13s %-13s %-32s %-32s %9s %6s %5s %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "Δ", "bound", "won", "failed")
	for _, r := range rows {
		verdict := ""
		if r.Worse {
			verdict = "  WORSE than bound"
		}
		fmt.Fprintf(w, "%-13s %-13s %-32s %-32s %+8.2f%% %5.0f%% %2d/%-2d %d/%d%s\n",
			r.Workload, r.Metric, spread(r.Base), spread(r.Head), r.DeltaPct, r.Bound*100,
			r.Won, r.Pairs, r.BaseFailed, r.HeadFailed, verdict)
	}
}

func spread(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
