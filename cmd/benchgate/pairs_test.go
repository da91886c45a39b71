package main

import (
	"bytes"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRuns is an injected runner: each side's metric values per seed,
// and a log of the order in which the runs were made.
type fakeRuns struct {
	values map[string]func(seed int) float64 // side -> backup_mbps
	failed map[string]int                    // side -> failed per run
	order  []string
}

func (f *fakeRuns) run(side, workload string, seed int, seconds float64) (benchLine, error) {
	f.order = append(f.order, side)
	line := benchLine{Failed: f.failed[side], Metrics: map[string]struct {
		Value float64 `json:"value"`
	}{}}
	v := f.values[side](seed)
	line.Metrics["backup_mbps"] = struct {
		Value float64 `json:"value"`
	}{v}
	line.Metrics["alloc_ratio"] = struct {
		Value float64 `json:"value"`
	}{1000 / v}
	return line, nil
}

func testSpec() *benchSpec {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "backup_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
		{Name: "alloc_ratio", Unit: "B/B", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"local-full"})
	return spec
}

// TestPairsAlternateAndCount: odd seeds run the base first and even
// seeds the working tree, and the table counts the pairs won, the
// medians and quartiles of each side, the change against the bound and
// every failed operation.
func TestPairsAlternateAndCount(t *testing.T) {
	f := &fakeRuns{
		values: map[string]func(int) float64{
			"base": func(seed int) float64 { return 100 + float64(seed) },
			// The working tree wins every pair but the fourth.
			"head": func(seed int) float64 {
				if seed == 4 {
					return 90
				}
				return 200 + float64(seed)
			},
		},
		failed: map[string]int{"head": 1},
	}
	rows, err := collectPairs(f.run, testSpec(), []string{"local-full"}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := "base head head base base head head base base head"
	if got := strings.Join(f.order, " "); got != wantOrder {
		t.Fatalf("run order %q, want %q", got, wantOrder)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per metric", len(rows))
	}
	mbps, alloc := rows[0], rows[1]
	if mbps.Metric != "backup_mbps" || mbps.Won != 4 || mbps.Pairs != 5 {
		t.Fatalf("backup_mbps row %+v, want 4 of 5 pairs won", mbps)
	}
	// Base values 101..105, head 90, 201, 202, 203, 205.
	if mbps.Base != [3]float64{101.5, 103, 104.5} || mbps.Head != [3]float64{145.5, 202, 204} {
		t.Fatalf("quartiles base %v head %v", mbps.Base, mbps.Head)
	}
	if want := (202.0 - 103) / 103 * 100; math.Abs(mbps.DeltaPct-want) > 1e-9 || mbps.Worse {
		t.Fatalf("Δ %.3f%% (worse %v), want %+.3f%%", mbps.DeltaPct, mbps.Worse, want)
	}
	if alloc.Won != 4 || alloc.Worse || alloc.DeltaPct >= 0 {
		t.Fatalf("alloc_ratio row %+v: lower is better, so head wins and improves", alloc)
	}
	if mbps.BaseFailed != 0 || mbps.HeadFailed != 5 {
		t.Fatalf("failed %d/%d, want 0/5", mbps.BaseFailed, mbps.HeadFailed)
	}
	var out bytes.Buffer
	printPairs(&out, rows)
	if !strings.Contains(out.String(), "4/5") || !strings.Contains(out.String(), "103 [101.5, 104.5]") {
		t.Fatalf("table:\n%s", out.String())
	}
}

// TestPairsFlagsWorseThanBound: a change of the medians past the metric's
// bound, in the wrong direction, is flagged.
func TestPairsFlagsWorseThanBound(t *testing.T) {
	f := &fakeRuns{values: map[string]func(int) float64{
		"base": func(int) float64 { return 100 },
		"head": func(int) float64 { return 70 },
	}}
	rows, err := collectPairs(f.run, testSpec(), []string{"local-full"}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Worse || rows[0].Won != 0 {
		t.Fatalf("backup_mbps -30%% against a 25%% bound: %+v", rows[0])
	}
	if !rows[1].Worse {
		t.Fatalf("alloc_ratio +43%% against a 10%% bound: %+v", rows[1])
	}
	var out bytes.Buffer
	printPairs(&out, rows)
	if !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("table does not flag the regression:\n%s", out.String())
	}
}

func TestPairsRejectsUnknownWorkload(t *testing.T) {
	if _, err := pickWorkloads(testSpec(), "local-full,nope"); err == nil {
		t.Fatal("an unknown workload was accepted")
	}
	got, err := pickWorkloads(testSpec(), "")
	if err != nil || len(got) != 1 || got[0] != "local-full" {
		t.Fatalf("default workloads %v, %v", got, err)
	}
}

func TestLastLine(t *testing.T) {
	out := []byte("table\n{\n \"indented\": 1\n}\n{\"correct\":true,\"failed\":2,\"metrics\":{\"alloc_ratio\":{\"value\":0.25,\"unit\":\"B/B\"}}}\n\n")
	line, err := lastLine(out)
	if err != nil || line.Failed != 2 || line.Metrics["alloc_ratio"].Value != 0.25 {
		t.Fatalf("lastLine = %+v, %v", line, err)
	}
	if _, err := lastLine([]byte("build failed\n")); err == nil {
		t.Fatal("a run without a result line parsed")
	}
}

// TestSymbolAddr looks symbols up in a build of this command (go test
// links its test binary without a symbol table): a function it links has
// a nonzero address, and a name it lacks is an error.
func TestSymbolAddr(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	addr, err := symbolAddr(bin, "main.symbolAddr")
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 {
		t.Fatal("main.symbolAddr at address 0")
	}
	if _, err := symbolAddr(bin, "main.noSuchFunction"); err == nil {
		t.Fatal("a missing symbol returned no error")
	}
	var out bytes.Buffer
	printLayout(&out, "main.symbolAddr", bin, bin)
	if !strings.HasSuffix(out.String(), ": same\n") {
		t.Fatalf("printLayout on one binary twice: %q", out.String())
	}
}
