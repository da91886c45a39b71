package trace_test

// The evaluation's three datasets (Section 5.1), generated by the
// workload registry, keep the trace-level shape the attacks and defenses
// depend on: skewed frequencies, overlap between consecutive backups,
// growth, fixed-size VM chunks and the VM heavy-churn window.

import (
	"strconv"
	"testing"

	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
)

var (
	smallSynthetic = workload.Config{Seed: 1, Backups: 5, TotalBytes: 4 << 20, MeanObjectBytes: 32 << 10}
	smallFSL       = workload.Config{Seed: 2, Users: 3, TotalBytes: 6 << 20}
	smallVM        = workload.Config{Seed: 3, Users: 4, Backups: 6, TotalBytes: 4 << 20}
)

func generate(t *testing.T, name string, cfg workload.Config) *trace.Dataset {
	t.Helper()
	d, err := workload.Generate(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// overlap is the share of backup j's unique chunks also in backup i.
func overlap(d *trace.Dataset, i, j int) float64 {
	a := d.Backups[i].Frequencies()
	var shared, total int
	for fp := range d.Backups[j].Frequencies() {
		total++
		if _, ok := a[fp]; ok {
			shared++
		}
	}
	return float64(shared) / float64(total)
}

func TestGenerateSyntheticShape(t *testing.T) {
	d := generate(t, "synthetic", smallSynthetic)
	if len(d.Backups) != smallSynthetic.Backups {
		t.Fatalf("backups = %d, want %d", len(d.Backups), smallSynthetic.Backups)
	}
	// Consecutive snapshots must share most content (2% file churn).
	if frac := overlap(d, len(d.Backups)-2, len(d.Backups)-1); frac < 0.9 {
		t.Fatalf("consecutive synthetic snapshots share only %.2f of unique chunks", frac)
	}
	// The whole chain should deduplicate strongly (paper: ~90% saving).
	if s := d.Stats().Saving(); s < 0.5 {
		t.Fatalf("synthetic dataset saving %.2f, expected >0.5", s)
	}
}

func TestGenerateSyntheticGrows(t *testing.T) {
	d := generate(t, "synthetic", smallSynthetic)
	first := d.Backups[0].LogicalSize()
	last := d.Backups[len(d.Backups)-1].LogicalSize()
	if last <= first {
		t.Fatalf("snapshots should grow with new data: first=%d last=%d", first, last)
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	a := generate(t, "synthetic", smallSynthetic)
	b := generate(t, "synthetic", smallSynthetic)
	if len(a.Backups) != len(b.Backups) {
		t.Fatal("nondeterministic backup count")
	}
	for i := range a.Backups {
		if len(a.Backups[i].Chunks) != len(b.Backups[i].Chunks) {
			t.Fatalf("backup %d chunk counts differ", i)
		}
		for j := range a.Backups[i].Chunks {
			if a.Backups[i].Chunks[j] != b.Backups[i].Chunks[j] {
				t.Fatalf("backup %d chunk %d differs", i, j)
			}
		}
	}
}

func TestFSLWorkloadShape(t *testing.T) {
	d := generate(t, "fsl", smallFSL)
	if len(d.Backups) != 5 {
		t.Fatalf("backups = %d, want the default 5 months", len(d.Backups))
	}
	for i, b := range d.Backups {
		if b.Label != strconv.Itoa(i) {
			t.Fatalf("label %d = %q", i, b.Label)
		}
	}
	// Skewed frequencies: the most frequent chunk must occur far more often
	// than the median (Figure 1's heavy head). The hot head's absolute
	// counts scale with dataset size, so measure at a moderate scale.
	freqs := generate(t, "fsl", workload.Config{Seed: 2, TotalBytes: 6 * 8 << 20}).FrequencyCDF()
	max := freqs[len(freqs)-1]
	median := freqs[len(freqs)/2]
	if max < 10*median {
		t.Fatalf("frequency distribution not skewed: max=%d median=%d", max, median)
	}
	// Variable chunk sizes within the default model's bounds.
	for _, c := range d.Backups[0].Chunks[:100] {
		if c.Size < 2048 || c.Size > 16384 {
			t.Fatalf("chunk size %d out of bounds", c.Size)
		}
	}
}

func TestFSLWorkloadChurn(t *testing.T) {
	d := generate(t, "fsl", smallFSL)
	// Monthly churn must be substantial but leave meaningful overlap.
	frac := overlap(d, len(d.Backups)-2, len(d.Backups)-1)
	if frac < 0.2 || frac > 0.95 {
		t.Fatalf("consecutive FSL overlap %.2f outside plausible churn range", frac)
	}
}

func TestGenerateVMShape(t *testing.T) {
	d := generate(t, "vm", smallVM)
	if len(d.Backups) != smallVM.Backups {
		t.Fatalf("backups = %d, want %d", len(d.Backups), smallVM.Backups)
	}
	// Fixed-size chunks only.
	for _, c := range d.Backups[0].Chunks[:200] {
		if c.Size != 4096 {
			t.Fatalf("chunk size %d, want fixed 4096", c.Size)
		}
	}
	// Week 1: students share the base image, so intra-backup duplication is
	// massive (each base chunk appears ~Students times).
	b := d.Backups[0]
	if ratio := float64(len(b.Chunks)) / float64(b.UniqueCount()); ratio < 2 {
		t.Fatalf("week-1 intra-backup dup ratio %.1f, expected >=2 from shared base", ratio)
	}
}

func TestGenerateVMHeavyChurnWindow(t *testing.T) {
	d := generate(t, "vm", smallVM)
	// The window covers transitions 5-8 of 13, scaled to the backup count.
	heavyStart := 5 * smallVM.Backups / 13
	if heavyStart < 2 {
		t.Fatalf("heavy window starts at transition %d; the test needs a light one before it", heavyStart)
	}
	light := overlap(d, 0, 1)                     // transition 1 (light)
	heavy := overlap(d, heavyStart-1, heavyStart) // first heavy transition
	if light <= heavy {
		t.Fatalf("heavy churn window not heavier: light overlap %.2f, heavy overlap %.2f", light, heavy)
	}
}
