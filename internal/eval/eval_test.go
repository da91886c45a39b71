package eval

import (
	"bytes"
	"strings"
	"testing"

	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
)

// smallDatasets builds reduced datasets so the figure runners can be
// exercised quickly in unit tests (the full-scale runs live in the
// benchmark harness).
func smallDatasets() Datasets {
	gen := func(name string, cfg workload.Config) *trace.Dataset {
		d, err := workload.Generate(name, cfg)
		if err != nil {
			panic(err)
		}
		return d
	}
	return Datasets{
		FSL:       gen("fsl", workload.Config{Seed: 2, Users: 3, TotalBytes: 9 << 20}),
		Synthetic: gen("synthetic", workload.Config{Seed: 1, Backups: 6, TotalBytes: 6 << 20}),
		VM:        gen("vm", workload.Config{Seed: 3, Users: 5, Backups: 6, TotalBytes: 10 << 20}),
	}
}

var testDS = smallDatasets()

func renderAll(t *testing.T, figs []Figure) string {
	t.Helper()
	var buf bytes.Buffer
	for i := range figs {
		figs[i].Render(&buf)
	}
	return buf.String()
}

func checkFigure(t *testing.T, f Figure) {
	t.Helper()
	if f.ID == "" || f.Title == "" {
		t.Fatalf("figure missing identity: %+v", f)
	}
	if len(f.X) == 0 {
		t.Fatalf("%s: empty x-axis", f.ID)
	}
	if len(f.Series) == 0 {
		t.Fatalf("%s: no series", f.ID)
	}
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			t.Fatalf("%s: series %q empty", f.ID, s.Name)
		}
		if len(s.Y) > len(f.X) {
			t.Fatalf("%s: series %q longer than x-axis", f.ID, s.Name)
		}
		for i, y := range s.Y {
			if y < 0 {
				t.Fatalf("%s: series %q has negative value at %d", f.ID, s.Name, i)
			}
			if f.Percent && y > 1 {
				t.Fatalf("%s: series %q value %v exceeds 100%%", f.ID, s.Name, y)
			}
		}
	}
}

func TestGenerateCachedAndValid(t *testing.T) {
	a := Generate()
	b := Generate()
	if a.FSL != b.FSL || a.VM != b.VM || a.Synthetic != b.Synthetic {
		t.Fatal("Generate must cache datasets")
	}
	for _, d := range []*trace.Dataset{a.FSL, a.Synthetic, a.VM} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig1(t *testing.T) {
	figs := Fig1FrequencyDistribution(testDS)
	if len(figs) != 2 {
		t.Fatalf("got %d figures, want 2 (FSL, VM)", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
		// Frequencies must be non-decreasing along the CDF.
		y := f.Series[0].Y
		for i := 1; i < len(y); i++ {
			if y[i] < y[i-1] {
				t.Fatalf("%s: CDF frequencies not monotone", f.ID)
			}
		}
	}
}

func TestFig5(t *testing.T) {
	figs := Fig5VaryAux(testDS)
	if len(figs) != 3 {
		t.Fatalf("got %d figures, want 3", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// The VM figure must not include an Advanced series.
	for _, s := range figs[2].Series {
		if s.Name == "Advanced" {
			t.Fatal("VM figure should not carry an Advanced series")
		}
	}
}

func TestFig6(t *testing.T) {
	for _, f := range Fig6VaryTarget(testDS) {
		checkFigure(t, f)
	}
}

func TestFig7(t *testing.T) {
	figs := Fig7SlidingWindow(testDS)
	for _, f := range figs {
		checkFigure(t, f)
	}
	// VM gets s=1,2,3; FSL/synthetic get s=1,2 plus advanced series.
	if len(figs[2].Series) != 3 {
		t.Fatalf("VM sliding window series = %d, want 3", len(figs[2].Series))
	}
	if len(figs[0].Series) != 4 {
		t.Fatalf("FSL sliding window series = %d, want 4", len(figs[0].Series))
	}
}

func TestFig8(t *testing.T) {
	f := Fig8KnownPlaintext(testDS)
	checkFigure(t, f)
	// More leakage must not hurt much: the last x (0.2%) should be at
	// least as large as the first (0%) for each series, within noise.
	for _, s := range f.Series {
		if s.Y[len(s.Y)-1]+0.02 < s.Y[0] {
			t.Fatalf("%s: leakage decreased inference for %q: %v", f.ID, s.Name, s.Y)
		}
	}
}

func TestFig9(t *testing.T) {
	for _, f := range Fig9KPVaryAux(testDS) {
		checkFigure(t, f)
	}
}

func TestFig10DefenseSuppresses(t *testing.T) {
	figs, err := Fig10Defense(testDS)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		checkFigure(t, f)
		var combined, baseline *Series
		for i := range f.Series {
			switch f.Series[i].Name {
			case "Combined":
				combined = &f.Series[i]
			case "MLE (undefended)":
				baseline = &f.Series[i]
			}
		}
		if combined == nil || baseline == nil {
			t.Fatalf("%s: missing series", f.ID)
		}
		last := len(LeakageRates) - 1
		if baseline.Y[last] > 0.05 && combined.Y[last] > baseline.Y[last]/2 {
			t.Fatalf("%s: combined defense not suppressing: baseline %.3f vs combined %.3f",
				f.ID, baseline.Y[last], combined.Y[last])
		}
	}
}

func TestFig11SavingGapSmall(t *testing.T) {
	figs, err := Fig11StorageSaving(testDS)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		checkFigure(t, f)
		mle, comb := f.Series[0], f.Series[1]
		last := len(mle.Y) - 1
		if comb.Y[last] > mle.Y[last] {
			t.Fatalf("%s: combined saving exceeds exact dedup", f.ID)
		}
	}
}

func TestFig13And14(t *testing.T) {
	f13, err := Fig13Metadata512(testDS)
	if err != nil {
		t.Fatal(err)
	}
	f14, err := Fig14Metadata4G(testDS)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13) != 3 || len(f14) != 3 {
		t.Fatalf("metadata figures: got %d/%d, want 3/3", len(f13), len(f14))
	}
	for _, f := range append(f13, f14...) {
		checkFigure(t, f)
	}
	// The all-fitting cache must not access more metadata than the
	// constrained cache (loading decreases with cache size).
	total := func(figs []Figure) float64 {
		var sum float64
		for _, y := range figs[0].Series[0].Y { // MLE overall
			sum += y
		}
		return sum
	}
	if total(f14) > total(f13) {
		t.Fatalf("larger cache accessed more metadata: %f > %f", total(f14), total(f13))
	}
}

func TestFig4(t *testing.T) {
	for _, f := range Fig4ParamSweep(testDS) {
		checkFigure(t, f)
	}
}

func TestAttackScaling(t *testing.T) {
	f := AttackScaling(testDS.Synthetic)
	checkFigure(t, f)
	y := f.Series[0].Y
	if y[len(y)-1] < y[0] {
		t.Fatal("inferred pairs should not shrink with longer streams")
	}
}

func TestRenderOutput(t *testing.T) {
	out := renderAll(t, Fig1FrequencyDistribution(testDS))
	for _, want := range []string{"Fig 1 (fsl)", "Fig 1 (vm)", "CDF of chunks", "frequency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationDefenseComponents(t *testing.T) {
	fig, err := AblationDefenseComponents(testDS)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig)
	y := fig.Series[0].Y
	// Order: MLE, RCE, ScrambleOnly, MinHash, Combined. RCE must equal MLE
	// exactly; Combined must be the minimum.
	if y[0] != y[1] {
		t.Fatalf("RCE (%.4f) must leak exactly like MLE (%.4f)", y[1], y[0])
	}
	for i := 0; i < 4; i++ {
		if y[4] > y[i] {
			t.Fatalf("combined (%.4f) must be the strongest defense (vs %.4f at %d)", y[4], y[i], i)
		}
	}
}

func TestAblationSegmentSize(t *testing.T) {
	fig, err := AblationSegmentSize(testDS)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig)
}

func TestAblationTieBreaking(t *testing.T) {
	fig := AblationTieBreaking(testDS)
	checkFigure(t, fig)
}

func TestRestoreLocality(t *testing.T) {
	fig, err := RestoreLocality(testDS)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig)
	mle, comb := fig.Series[0].Y, fig.Series[1].Y
	var mleTot, combTot float64
	for i := range mle {
		mleTot += mle[i]
		combTot += comb[i]
	}
	if mleTot == 0 {
		t.Fatal("no container reads recorded")
	}
	// Section 6.2's claim: scrambling within sub-container segments adds
	// limited restore overhead.
	if combTot > 3*mleTot {
		t.Fatalf("combined restore reads %.0f vs MLE %.0f; scrambling overhead too large", combTot, mleTot)
	}
}

// TestCDFIndexSmallN pins the round-half-up percentile indexing: the old
// floor rule mapped p=0.50 of n=3 to index 0 (the minimum instead of the
// median), skewing small-dataset Figure 1 points.
func TestCDFIndexSmallN(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{0.50, 3, 1},   // median of 3, not the minimum
		{1.0, 3, 2},    // maximum
		{0.50, 1, 0},   // degenerate n
		{0.0001, 3, 0}, // clamped low
		{0.50, 4, 1},   // round(2.0)-1
		{0.90, 10, 8},
		{0.99, 10, 9}, // round(9.9)-1
		{0.9999, 10, 9},
		{1.0, 1000000, 999999},
		{0.50, 1000000, 499999},
	}
	for _, c := range cases {
		if got := cdfIndex(c.p, c.n); got != c.want {
			t.Errorf("cdfIndex(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// TestSingleDatasetFigures checks the repository-replay path: a bundle
// with one dataset in every slot yields each figure exactly once.
func TestSingleDatasetFigures(t *testing.T) {
	ds := SingleDataset(testDS.Synthetic)
	if got := len(ds.list()); got != 1 {
		t.Fatalf("SingleDataset list has %d datasets, want 1", got)
	}
	if figs := Fig1FrequencyDistribution(ds); len(figs) != 1 {
		t.Fatalf("Fig1 produced %d figures for a single dataset, want 1", len(figs))
	}
	if figs := Fig5VaryAux(ds); len(figs) != 1 {
		t.Fatalf("Fig5 produced %d figures for a single dataset, want 1", len(figs))
	}
	for _, f := range Fig7SlidingWindow(ds) {
		checkFigure(t, f)
	}
	if figs := Fig7SlidingWindow(ds); len(figs) != 1 {
		t.Fatalf("Fig7 produced %d figures for a single dataset, want 1", len(figs))
	}
}
