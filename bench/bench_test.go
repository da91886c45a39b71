package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// testScale divides every input size, so the whole benchmark runs in a few
// seconds.
const testScale = 64

// runAll runs every workload once, traced, at test scale.
func runAll(t *testing.T, seed int64) map[string]*result {
	t.Helper()
	o := options{seed: seed, seconds: 0.01, trace: true, tmp: t.TempDir(), scale: testScale}
	out := map[string]*result{}
	for _, w := range workloads {
		res, err := runWorkload(o, w.Name, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		if res.Rounds < minRounds || res.TracedRounds < minRounds {
			t.Fatalf("%s: %d untraced and %d traced rounds, want at least %d each", w.Name, res.Rounds, res.TracedRounds, minRounds)
		}
		out[w.Name] = res
	}
	return out
}

func TestInputsComeFromTheSeed(t *testing.T) {
	hashes := func(name string, seed int64) []string {
		in, err := buildInputs(name, seed, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out []string
		for _, st := range in.Streams {
			for _, sn := range st.Snapshots {
				out = append(out, fmt.Sprintf("%s/%s=%x", st.Tenant, sn.Name, sn.Sum))
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b, other := hashes(w.Name, 7), hashes(w.Name, 7), hashes(w.Name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		// defended-lab's bytes are fixed (see defendedContentSeed); its
		// seed scrambles the upload order and samples the leaked chunks.
		if same := reflect.DeepEqual(a, other); same != (w.Name == "defended-lab") {
			t.Errorf("%s: another seed gave the same inputs: %v", w.Name, same)
		}
	}
}

func TestWorkloadsCompleteAndRepeat(t *testing.T) {
	a, b := runAll(t, 7), runAll(t, 7)

	want := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want[def.Name] = true
	}
	// A per-layer metric is exact when it is a count the inputs fix.
	exact := []string{"stored_ratio", "chunker.chunks", "attack.inferred_pct.mle", "attack.inferred_pct.combined", "attack.pairs"}
	for name, ra := range a {
		for m, s := range ra.Metrics {
			if !want[m] {
				t.Errorf("%s reports %q, which BENCHMARK.json does not name", name, m)
			}
			if s.N == 0 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				t.Errorf("%s %s = %v over %d samples", name, m, s.Median, s.N)
			}
		}
		for m := range want {
			if _, ok := ra.Metrics[m]; !ok {
				t.Errorf("%s does not report %q", name, m)
			}
		}
		for _, def := range endToEnd {
			if ra.Metrics[def.Name].Median <= 0 {
				t.Errorf("%s %s = %v, want > 0", name, def.Name, ra.Metrics[def.Name].Median)
			}
		}
		rb := b[name]
		for _, m := range exact {
			// remote-mix's two tenants interleave in shared shards, so
			// its container framing is not fixed by the seed.
			if name == "remote-mix" && m == "stored_ratio" {
				continue
			}
			if ra.Metrics[m].Median != rb.Metrics[m].Median {
				t.Errorf("%s %s: %v then %v for the same seed", name, m, ra.Metrics[m].Median, rb.Metrics[m].Median)
			}
		}
	}
	if got := a["defended-lab"].Metrics["attack.pairs"].Median; got == 0 {
		t.Error("defended-lab inferred no pairs")
	}
	if got := a["remote-mix"].Metrics["wire.rx_bytes"].Median; got == 0 {
		t.Error("remote-mix counted no bytes on the wire")
	}
	if got := a["local-full"].Metrics["wire.rx_bytes"].Median; got != 0 {
		t.Errorf("local-full counted %v bytes on a wire it does not use", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in agreement.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, program has %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, program has %v", kind, g.Name, g.Bound, w.Bound)
			}
			if len(g.Name) > 64 || len(g.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

// TestFinalLine runs the command-line path and checks the driver's line.
func TestFinalLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "local-full", "--seed", "3", "--seconds", "0.01", "--trace", trace, "--tmp", t.TempDir()}
		o, names, ok := parseArgs(args, &errOut)
		if !ok {
			t.Fatalf("parseArgs: %s", errOut.String())
		}
		o.scale = testScale
		if code := execute(o, names, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var final map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		keys := make([]string, 0, len(final))
		for k := range final {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %s: keys %v", trace, keys)
		}
		var metrics map[string]finalMetric
		if err := json.Unmarshal(final["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, def := range defs {
			if m, ok := metrics[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("trace %s: metric %s = %+v", trace, def.Name, m)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	if a, b, c := quartiles([]float64{5}); a != 5 || b != 5 || c != 5 {
		t.Errorf("one value: %v %v %v", a, b, c)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rows := layerTable([]span{
		{ID: 1, Name: "repo.backup", Start: 0, End: msec(100)},
		{ID: 2, Parent: 1, Name: "vfs.sync", Start: msec(10), End: msec(30)},
		{ID: 3, Parent: 1, Name: "vfs.sync", Start: msec(20), End: msec(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "vfs.sync", Start: msec(90), End: msec(120)}, // runs past its parent
	})
	got := map[string]layerRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if r := got["repo.backup"]; r.Count != 1 || r.Busy != msec(100) || r.Self != msec(50) {
		t.Errorf("repo.backup = %+v, want busy 100ms self 50ms", r)
	}
	if r := got["vfs.sync"]; r.Count != 3 || r.Busy != msec(80) || r.Self != msec(80) {
		t.Errorf("vfs.sync = %+v, want busy 80ms self 80ms", r)
	}
}
