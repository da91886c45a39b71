package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkChunkerCDC-8":               "BenchmarkChunkerCDC",
		"BenchmarkChunkerCDC":                 "BenchmarkChunkerCDC",
		"BenchmarkStoreShards/shards=4-16":    "BenchmarkStoreShards/shards=4",
		"BenchmarkChunkerGearMulti/workers=2": "BenchmarkChunkerGearMulti/workers=2",
	}
	for in, want := range cases {
		if got := canonicalName(in); got != want {
			t.Errorf("canonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStableTier(t *testing.T) {
	for _, name := range []string{
		"BenchmarkChunkerCDC", "BenchmarkChunkerGear",
		"BenchmarkBackupSerial", "BenchmarkBackupParallel",
		"BenchmarkRestoreSerial", "BenchmarkRestoreParallel", "BenchmarkRestoreFile",
		"BenchmarkStoreShards/shards=4",
	} {
		if !inStableTier(name) {
			t.Errorf("%s should be in the stable tier", name)
		}
	}
	for _, name := range []string{
		"BenchmarkBasicAttackFSL", "BenchmarkAttackStreaming/shards=1",
		"BenchmarkWorkloadGenerate", "BenchmarkBackupNotATier",
	} {
		if inStableTier(name) {
			t.Errorf("%s must not gate", name)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkChunkerCDC-8      5   44221123 ns/op   379.39 MB/s   268310 B/op   7 allocs/op
BenchmarkNoThroughput      5   44221123 ns/op
PASS
`
	got, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["BenchmarkChunkerCDC"] != 379.39 {
		t.Fatalf("parsed %v", got)
	}
}

func writeBaseline(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareGatesOnlyStableTier(t *testing.T) {
	dir := t.TempDir()
	p := writeBaseline(t, dir, "BENCH_20260101.json", `{
  "date": "20260101", "go": "go", "gomaxprocs": 1,
  "benchmarks": [
    {"name": "BenchmarkChunkerCDC", "iterations": 5, "ns/op": 1, "MB/s": 400.0},
    {"name": "BenchmarkBasicAttackFSL", "iterations": 5, "ns/op": 1, "MB/s": 100.0}
  ]
}`)
	b, err := loadBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]float64{
		"BenchmarkChunkerCDC":     300.0, // -25%: regression in stable tier
		"BenchmarkBasicAttackFSL": 10.0,  // -90%: but not a gating benchmark
		"BenchmarkChunkerGear":    900.0, // new: no baseline, never gates
	}
	byName := map[string]delta{}
	for _, d := range compare([]*baseline{b}, fresh, 0.20) {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkChunkerCDC"]; !d.Gating || !d.Regessed {
		t.Errorf("ChunkerCDC at -25%% must gate and fail: %+v", d)
	}
	if d := byName["BenchmarkBasicAttackFSL"]; d.Gating || d.Regessed {
		t.Errorf("attack benchmark must never gate: %+v", d)
	}
	if d := byName["BenchmarkChunkerGear"]; d.Gating || d.Regessed || d.Base != 0 {
		t.Errorf("new benchmark must never gate: %+v", d)
	}
}

func TestCompareGatesAgainstNewestBaseline(t *testing.T) {
	dir := t.TempDir()
	newest, err := loadBaseline(writeBaseline(t, dir, "BENCH_20260201.json", `{
  "benchmarks": [{"name": "BenchmarkChunkerCDC", "MB/s": 300.0}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	older, err := loadBaseline(writeBaseline(t, dir, "BENCH_20260101.json", `{
  "benchmarks": [{"name": "BenchmarkChunkerCDC", "MB/s": 400.0}]
}`))
	if err != nil {
		t.Fatal(err)
	}

	// 280 MB/s is a -30% loss against the OLDER, faster baseline but only
	// -7% against the newest accepted state: the newest baseline gates.
	got := compare([]*baseline{newest, older}, map[string]float64{"BenchmarkChunkerCDC": 280.0}, 0.20)
	if len(got) != 1 || got[0].Regessed || !got[0].Gating || got[0].Base != 300.0 {
		t.Fatalf("newest-baseline compare: %+v", got)
	}

	// The newest baseline demoted to advisory (foreign CPU): gating falls
	// back to the older comparable one, and 280 against 400 fails.
	newest.advisory = true
	got = compare([]*baseline{newest, older}, map[string]float64{"BenchmarkChunkerCDC": 280.0}, 0.20)
	if len(got) != 1 || !got[0].Regessed || got[0].Base != 400.0 {
		t.Fatalf("advisory-fallback compare: %+v", got)
	}

	// Both advisory: nothing gates at all.
	older.advisory = true
	got = compare([]*baseline{newest, older}, map[string]float64{"BenchmarkChunkerCDC": 280.0}, 0.20)
	if len(got) != 1 || got[0].Gating || got[0].Regessed {
		t.Fatalf("all-advisory compare: %+v", got)
	}
}
