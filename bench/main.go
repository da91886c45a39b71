// Command bench is the repository's end-to-end benchmark: backup, restore
// and leakage on file-backed repositories, driven through the public
// entry points with default options, with an outside-in layer trace. See
// README.md beside this file and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workloads, in the order "all" runs them. Each "why" is BENCHMARK.json's.
var workloads = []struct{ Name, Why string }{
	{"local-full", "never-seen incompressible snapshots: every chunk misses the index, so MLE encrypt, container append, seal fsync and catalog commit carry backup; an index-hit change must not show here"},
	{"local-incr", "fileserver generations ~95% duplicate: chunker, fingerprint and index-hit path carry backup, little is written, and the restore is fragmented over five backups' containers"},
	{"remote-mix", "the same Repository behind NewRepositoryServer on loopback with 2 closed-loop tenants of unequal size: wire and server sessions (negotiate, upload, commit) do work only here"},
	{"defended-lab", "local-incr's bytes under MinHash encryption + scrambling + upload tap, plus the locality attack on an MLE and a defended trace: prices the paper's defence and times the adversary"},
}

const (
	setupRepeats = 5 // input builds per run; setup_s takes their median
	minRounds    = 3 // timed rounds per run, however short --seconds is
)

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	repeat   bool
	tmp      string
	traceOut string
	scale    int // divides every input size; 1 outside tests
}

func main() {
	o, names, ok := parseArgs(os.Args[1:], os.Stderr)
	if !ok {
		os.Exit(2)
	}
	os.Exit(execute(o, names, os.Stdout, os.Stderr))
}

// parseArgs reads the command line; names are the workloads to run.
func parseArgs(args []string, stderr io.Writer) (o options, names []string, ok bool) {
	var workload string
	var traceFlag int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&workload, "workload", "", "workload name, or \"all\"")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each pass measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	fs.BoolVar(&o.repeat, "repeat", false, "run everything twice and compare the medians against the bounds")
	fs.StringVar(&o.tmp, "tmp", os.TempDir(), "directory the repositories and the trace file are created in")
	fs.StringVar(&o.traceOut, "tracefile", "", "Chrome trace-event file of the traced pass (default <tmp>/bench-trace.json)")
	if err := fs.Parse(args); err != nil {
		return o, nil, false
	}
	o.trace = traceFlag == 1
	o.scale = 1
	for _, w := range workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || fs.NArg() > 0 || o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "usage: bench -workload <%s|all> [-seed n] [-seconds s] [-trace 0|1] [-repeat]\n", strings.Join(workloadNames(), "|"))
		return o, nil, false
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.tmp, "bench-trace.json")
	}
	return o, names, true
}

// execute runs the workloads and prints the report; it returns the exit
// code.
func execute(o options, names []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	passes := 1
	if o.repeat {
		passes = 2
	}
	results := make([][]*result, passes)
	for p := range results {
		for _, name := range names {
			res, err := runWorkload(o, name, tr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			results[p] = append(results[p], res)
		}
	}
	last := results[passes-1]
	doc := report{Env: environment(o), Workloads: last}
	if tr != nil {
		if err := tr.writeChrome(o.traceOut); err != nil {
			return fail(fmt.Errorf("trace file: %w", err))
		}
		doc.TraceFile = o.traceOut
		for _, res := range last {
			printLayerTable(stdout, "layers of "+res.Name+" (all traced rounds)", res.layers)
		}
	}
	if o.repeat {
		printRepeat(stdout, results[0], results[1])
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fail(err)
	}

	// The last line is the driver's: one object, these four keys.
	final := finalLine{Metrics: map[string]finalMetric{}}
	for _, pass := range results {
		for _, res := range pass {
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for _, f := range res.Failures {
				fmt.Fprintln(stderr, "FAILED", f)
			}
		}
	}
	final.Correct = final.Failed == 0
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, res := range last {
		for _, def := range defs {
			name := def.Name
			if len(last) > 1 {
				name = res.Name + "." + name
			}
			final.Metrics[name] = finalMetric{Value: res.Metrics[def.Name].Median, Unit: def.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// summary is one metric of one workload over the run's rounds.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// result is one workload's run.
type result struct {
	Name         string             `json:"name"`
	Why          string             `json:"why"`
	Seed         int64              `json:"seed"`
	Rounds       int                `json:"rounds"`
	TracedRounds int                `json:"traced_rounds,omitempty"`
	Bytes        map[string]int64   `json:"bytes"`
	Attempted    int                `json:"ops"`
	Failed       int                `json:"failed_ops"`
	Failures     []string           `json:"failures,omitempty"`
	Metrics      map[string]summary `json:"metrics"`

	layers []layerRow
}

type report struct {
	Env       map[string]any `json:"env"`
	TraceFile string         `json:"trace_file,omitempty"`
	Workloads []*result      `json:"workloads"`
}

// runWorkload builds the inputs, warms up, and measures: untraced rounds
// for the end-to-end metrics, then, when tracing, traced rounds for the
// per-layer ones.
func runWorkload(o options, name string, tr *tracer) (*result, error) {
	res := &result{Name: name, Seed: o.seed, Metrics: map[string]summary{}}
	for _, w := range workloads {
		if w.Name == name {
			res.Why = w.Why
		}
	}

	// Set-up, several times: its median is part of setup_s.
	var in *inputs
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		// Start every build from a collected heap, or a build's time
		// depends on where in it the collector meets the previous one's
		// garbage.
		in = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = buildInputs(name, o.seed, o.scale); err != nil {
			return nil, fmt.Errorf("build inputs: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	res.Bytes = inputBytes(in)

	// oneRound runs a round in a fresh directory and removes it.
	oneRound := func(tr *tracer, index int) (*round, bool, error) {
		dir, err := os.MkdirTemp(o.tmp, "bench-"+name+"-")
		if err != nil {
			return nil, false, err
		}
		r := &round{name: name, seed: o.seed, index: index, in: in, dir: dir, tr: tr, layer: map[string]float64{}}
		if tr != nil {
			r.cfs = newCountFS(tr)
		}
		ok := r.run()
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.failures...)
		return r, ok, os.RemoveAll(dir)
	}
	samples := map[string][]float64{}
	// pass runs rounds for o.seconds, at least minRounds of them. A round
	// with a failed operation ends the measuring: a failing system is
	// reported, not timed.
	pass := func(tr *tracer, first int, seconds float64) (int, error) {
		rounds := 0
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for rounds < minRounds || time.Now().Before(deadline) {
			mark := tr.mark()
			r, ok, err := oneRound(tr, first+rounds)
			if err != nil || !ok {
				return rounds, err
			}
			rounds++
			vals := r.endToEnd()
			if tr != nil {
				spans := tr.since(mark)
				vals = r.perLayer(spans)
				res.layers = mergeLayers(res.layers, layerTable(spans))
			}
			for k, v := range vals {
				samples[k] = append(samples[k], v)
			}
		}
		return rounds, nil
	}

	// The warm-up round pays for cold files and a cold heap and is
	// discarded; the clock starts after it. When tracing, the untraced
	// pass is only the reference the traced rates are read against, and
	// gets half the time.
	untraced := o.seconds
	if tr != nil {
		untraced /= 2
	}
	if _, ok, err := oneRound(nil, -1); err != nil {
		return nil, err
	} else if ok {
		if res.Rounds, err = pass(nil, 0, untraced); err != nil {
			return nil, err
		}
		if tr != nil && res.Failed == 0 {
			if res.TracedRounds, err = pass(tr, res.Rounds, o.seconds); err != nil {
				return nil, err
			}
		}
	}

	// setup_s = the input build's median + each round's own preparation.
	build := median(builds)
	for i := range samples["setup_s"] {
		samples["setup_s"][i] += build
	}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = summarize(def, samples[def.Name])
	}
	if tr != nil {
		for _, def := range perLayer {
			res.Metrics[def.Name] = summarize(def, samples[def.Name])
		}
	}
	return res, nil
}

func summarize(def metricDef, v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{Unit: def.Unit, Better: def.Better, Bound: def.Bound, Median: med, Q1: q1, Q3: q3, N: len(v)}
}

func inputBytes(in *inputs) map[string]int64 {
	b := map[string]int64{}
	for _, st := range in.Streams {
		for i, sn := range st.Snapshots {
			if i < st.Prep {
				b["setup_backup"] += int64(len(sn.Data))
			} else {
				b["timed_backup"] += int64(len(sn.Data))
			}
		}
		b["restore"] += int64(len(st.Snapshots[len(st.Snapshots)-1].Data))
	}
	if in.Attack != nil {
		n := len(in.Attack.Backups)
		b["attack_aux_trace"] = int64(in.Attack.Backups[n-2].LogicalSize())
		b["attack_target_trace"] = int64(in.Attack.Backups[n-1].LogicalSize())
	}
	return b
}

// endToEnd computes the round's end-to-end metric values.
func (r *round) endToEnd() map[string]float64 {
	moved := float64(r.backupBytes + r.restoreBytes)
	return map[string]float64{
		"backup_mbps":  float64(r.backupBytes) / mb / r.backup.wall.Seconds(),
		"restore_mbps": float64(r.restoreBytes) / mb / r.restore.wall.Seconds(),
		"cpu_s_per_gb": (r.backup.cpu + r.restore.cpu) / (moved / gb),
		"alloc_ratio":  float64(r.backup.alloc+r.restore.alloc) / moved,
		"stored_ratio": float64(r.diskBytes) / float64(r.logicalBytes),
		"round_s":      (r.backup.wall + r.restore.wall + r.other.wall).Seconds(),
		"setup_s":      r.prep.Seconds(),
	}
}

// perLayer completes a traced round's per-layer values from its counters
// and spans; a layer the workload does not touch stays 0.
func (r *round) perLayer(spans []span) map[string]float64 {
	v := r.layer
	// The backup phase writes and syncs, the restore phase only reads.
	v["vfs.write_bytes"] = float64(r.backupIO.WriteBytes)
	v["vfs.writes"] = float64(r.backupIO.Writes)
	v["vfs.syncs"] = float64(r.backupIO.Syncs)
	v["vfs.sync_s"] = r.backupIO.SyncTime.Seconds()
	v["vfs.read_bytes"] = float64(r.backupIO.ReadBytes + r.restoreIO.ReadBytes)
	v["vfs.reads"] = float64(r.backupIO.Reads + r.restoreIO.Reads)
	v["vfs.write_amp"] = float64(r.backupIO.WriteBytes) / float64(r.backupBytes)
	v["vfs.read_amp"] = float64(r.restoreIO.ReadBytes) / float64(r.restoreBytes)
	v["repo.backup_s"] = r.backup.wall.Seconds()
	v["repo.restore_s"] = r.restore.wall.Seconds()
	v["server.session_s"] = (busy(spans, "server.backup") + busy(spans, "server.restore")).Seconds()
	if r.attackWall > 0 {
		v["attack.kchunks_per_s"] = float64(r.attackChunks) / 1e3 / r.attackWall.Seconds()
	}
	e2e := r.endToEnd()
	v["traced.backup_mbps"] = e2e["backup_mbps"]
	v["traced.restore_mbps"] = e2e["restore_mbps"]
	for _, def := range perLayer {
		if _, ok := v[def.Name]; !ok {
			v[def.Name] = 0
		}
	}
	return v
}

// mergeLayers adds one round's layer rows to the run's.
func mergeLayers(acc, rows []layerRow) []layerRow {
	at := map[string]int{}
	for i, r := range acc {
		at[r.Name] = i
	}
	for _, r := range rows {
		if i, ok := at[r.Name]; ok {
			acc[i].Count += r.Count
			acc[i].Busy += r.Busy
			acc[i].Self += r.Self
		} else {
			acc = append(acc, r)
		}
	}
	return acc
}

// printRepeat is -repeat's evidence: both passes' medians per end-to-end
// metric and workload, how much worse the second is, and whether that is
// inside the metric's own bound.
func printRepeat(w io.Writer, a, b []*result) {
	fmt.Fprintf(w, "\n%-13s %-13s %14s %14s %9s %7s  %s\n", "workload", "metric", "median_1", "median_2", "worse_by", "bound", "verdict")
	for i := range a {
		for _, def := range endToEnd {
			m1, m2 := a[i].Metrics[def.Name].Median, b[i].Metrics[def.Name].Median
			worse := (m2 - m1) / m1
			if def.Better == "higher" {
				worse = (m1 - m2) / m1
			}
			verdict := "PASS"
			if worse > def.Bound {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-13s %-13s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", a[i].Name, def.Name, m1, m2, 100*worse, 100*def.Bound, verdict)
		}
	}
}

// environment records where the numbers were taken.
func environment(o options) map[string]any {
	return map[string]any{
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"seed":         o.seed,
		"seconds":      o.seconds,
		"min_rounds":   minRounds,
		"warmup":       "1 discarded round per workload",
		"commit":       commit(),
		"tmp_dir":      o.tmp,
		"tmp_fs_type":  fsType(o.tmp),
		"flush_policy": "repository defaults: fsync on container seal and on catalog commit, group commit off",
		"caveat":       "reads are served from the OS page cache and fsync costs what this sandbox's virtual disk charges, not a device's",
	}
}

// commit is the revision go build stamped into the binary; the driver's
// checkouts are not git repositories and have none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// fsType is statfs's filesystem magic for dir, in hex.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%#x", st.Type)
}
