package trace

import (
	"math/rand"
	"testing"

	"freqdedup/internal/fphash"
)

func smallSynthetic() SyntheticParams {
	p := DefaultSyntheticParams()
	p.InitialBytes = 4 << 20
	p.MeanFileBytes = 32 << 10
	p.NewDataBytes = 40 << 10
	p.Snapshots = 4
	return p
}

func smallFSL() FSLParams {
	p := DefaultFSLParams()
	p.Users = 3
	p.PerUserBytes = 2 << 20
	return p
}

func smallVM() VMParams {
	p := DefaultVMParams()
	p.Students = 4
	p.BaseImageBytes = 1 << 20
	p.Weeks = 6
	p.HeavyStart, p.HeavyEnd = 3, 4
	return p
}

func TestBackupAccessors(t *testing.T) {
	b := &Backup{Label: "x", Chunks: []ChunkRef{
		{FP: fphash.FromUint64(1), Size: 100},
		{FP: fphash.FromUint64(2), Size: 200},
		{FP: fphash.FromUint64(1), Size: 100},
	}}
	if got := b.LogicalSize(); got != 400 {
		t.Fatalf("LogicalSize = %d, want 400", got)
	}
	if got := b.UniqueCount(); got != 2 {
		t.Fatalf("UniqueCount = %d, want 2", got)
	}
	freq := b.Frequencies()
	if freq[fphash.FromUint64(1)] != 2 || freq[fphash.FromUint64(2)] != 1 {
		t.Fatalf("Frequencies wrong: %v", freq)
	}
}

func TestDatasetStats(t *testing.T) {
	d := &Dataset{Name: "t", Backups: []*Backup{
		{Label: "1", Chunks: []ChunkRef{{FP: fphash.FromUint64(1), Size: 10}, {FP: fphash.FromUint64(2), Size: 20}}},
		{Label: "2", Chunks: []ChunkRef{{FP: fphash.FromUint64(1), Size: 10}, {FP: fphash.FromUint64(3), Size: 30}}},
	}}
	st := d.Stats()
	if st.LogicalBytes != 70 || st.PhysicalBytes != 60 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LogicalChunks != 4 || st.UniqueChunks != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Saving() <= 0 || st.Ratio() <= 1 {
		t.Fatalf("saving/ratio wrong: %v %v", st.Saving(), st.Ratio())
	}
}

func TestGenerateSyntheticShape(t *testing.T) {
	p := smallSynthetic()
	d := GenerateSynthetic(p)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Backups) != p.Snapshots+1 {
		t.Fatalf("backups = %d, want %d", len(d.Backups), p.Snapshots+1)
	}
	// Consecutive snapshots must share most content (2% file churn).
	prev := d.Backups[len(d.Backups)-2].Frequencies()
	last := d.Backups[len(d.Backups)-1]
	var shared, total int
	for fp := range last.Frequencies() {
		total++
		if _, ok := prev[fp]; ok {
			shared++
		}
	}
	if frac := float64(shared) / float64(total); frac < 0.9 {
		t.Fatalf("consecutive synthetic snapshots share only %.2f of unique chunks", frac)
	}
	// The whole chain should deduplicate strongly (paper: ~90% saving).
	if s := d.Stats().Saving(); s < 0.5 {
		t.Fatalf("synthetic dataset saving %.2f, expected >0.5", s)
	}
}

func TestGenerateSyntheticGrows(t *testing.T) {
	d := GenerateSynthetic(smallSynthetic())
	first := d.Backups[0].LogicalSize()
	last := d.Backups[len(d.Backups)-1].LogicalSize()
	if last <= first {
		t.Fatalf("snapshots should grow with new data: first=%d last=%d", first, last)
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	a := GenerateSynthetic(smallSynthetic())
	b := GenerateSynthetic(smallSynthetic())
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

func TestGenerateFSLShape(t *testing.T) {
	p := smallFSL()
	d := GenerateFSL(p)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Backups) != len(p.Labels) {
		t.Fatalf("backups = %d, want %d", len(d.Backups), len(p.Labels))
	}
	for i, b := range d.Backups {
		if b.Label != p.Labels[i] {
			t.Fatalf("label %d = %q, want %q", i, b.Label, p.Labels[i])
		}
	}
	// Skewed frequencies: the most frequent chunk must occur far more often
	// than the median (Figure 1's heavy head). The hot head's absolute
	// counts scale with dataset size, so measure at a moderate scale.
	skewed := DefaultFSLParams()
	skewed.PerUserBytes = 8 << 20
	freqs := GenerateFSL(skewed).FrequencyCDF()
	max := freqs[len(freqs)-1]
	median := freqs[len(freqs)/2]
	if max < 10*median {
		t.Fatalf("frequency distribution not skewed: max=%d median=%d", max, median)
	}
	// Variable chunk sizes within the configured bounds.
	for _, c := range d.Backups[0].Chunks[:100] {
		if int(c.Size) < p.Chunk.Min || int(c.Size) > p.Chunk.Max {
			t.Fatalf("chunk size %d out of bounds", c.Size)
		}
	}
}

func TestGenerateFSLChurn(t *testing.T) {
	d := GenerateFSL(smallFSL())
	// Monthly churn must be substantial but leave meaningful overlap.
	a := d.Backups[len(d.Backups)-2].Frequencies()
	b := d.Backups[len(d.Backups)-1]
	var shared, total int
	for fp := range b.Frequencies() {
		total++
		if _, ok := a[fp]; ok {
			shared++
		}
	}
	frac := float64(shared) / float64(total)
	if frac < 0.2 || frac > 0.95 {
		t.Fatalf("consecutive FSL overlap %.2f outside plausible churn range", frac)
	}
}

func TestGenerateVMShape(t *testing.T) {
	p := smallVM()
	d := GenerateVM(p)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Backups) != p.Weeks {
		t.Fatalf("backups = %d, want %d", len(d.Backups), p.Weeks)
	}
	// Fixed-size chunks only.
	for _, c := range d.Backups[0].Chunks[:200] {
		if c.Size != uint32(p.ChunkSize) {
			t.Fatalf("chunk size %d, want fixed %d", c.Size, p.ChunkSize)
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
	p := smallVM()
	d := GenerateVM(p)
	overlap := func(i, j int) float64 {
		a := d.Backups[i].Frequencies()
		b := d.Backups[j].Frequencies()
		var shared, total int
		for fp := range b {
			total++
			if _, ok := a[fp]; ok {
				shared++
			}
		}
		return float64(shared) / float64(total)
	}
	light := overlap(0, 1)                         // transition 1 (light)
	heavy := overlap(p.HeavyStart-1, p.HeavyStart) // first heavy transition
	if light <= heavy {
		t.Fatalf("heavy churn window not heavier: light overlap %.2f, heavy overlap %.2f", light, heavy)
	}
}

func TestValidateRejectsBadData(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
	}{
		{"no backups", &Dataset{Name: "x"}},
		{"empty backup", &Dataset{Name: "x", Backups: []*Backup{{Label: "b"}}}},
		{"zero size", &Dataset{Name: "x", Backups: []*Backup{{Label: "b", Chunks: []ChunkRef{{FP: fphash.FromUint64(1)}}}}}},
		{"zero fp", &Dataset{Name: "x", Backups: []*Backup{{Label: "b", Chunks: []ChunkRef{{Size: 1}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); err == nil {
				t.Fatal("Validate accepted bad dataset")
			}
		})
	}
}

func TestChunkSizeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := ChunkSizeModel{Min: 2048, Avg: 8192, Max: 16384}
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		s := int(m.draw(rng))
		if s < m.Min || s > m.Max {
			t.Fatalf("size %d out of [%d,%d]", s, m.Min, m.Max)
		}
		sum += s
	}
	avg := sum / n
	if avg < m.Avg/2 || avg > m.Avg*2 {
		t.Fatalf("mean size %d far from target %d", avg, m.Avg)
	}
	fixed := ChunkSizeModel{Min: 4096, Avg: 4096, Max: 4096}
	if fixed.draw(rng) != 4096 {
		t.Fatal("fixed model must always return the fixed size")
	}
}

func TestMinterNeverZeroNeverRepeats(t *testing.T) {
	m := &minter{}
	seen := make(map[fphash.Fingerprint]bool)
	for i := 0; i < 100000; i++ {
		fp := m.mint()
		if fp.IsZero() {
			t.Fatal("minted zero fingerprint")
		}
		if seen[fp] {
			t.Fatal("minted duplicate fingerprint")
		}
		seen[fp] = true
	}
}

func TestModifyFilePreservesOutsideRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := &minter{}
	sizes := ChunkSizeModel{Min: 4096, Avg: 4096, Max: 4096}
	f := &genFile{}
	for i := 0; i < 100; i++ {
		f.chunks = append(f.chunks, ChunkRef{FP: m.mint(), Size: 4096})
	}
	orig := f.clone()
	modifyFile(rng, m, f, 0.1, sizes)
	origSet := make(map[fphash.Fingerprint]bool)
	for _, c := range orig.chunks {
		origSet[c.FP] = true
	}
	var survived int
	for _, c := range f.chunks {
		if origSet[c.FP] {
			survived++
		}
	}
	if survived < 80 {
		t.Fatalf("10%% modification destroyed %d/100 chunks", 100-survived)
	}
	if survived == len(orig.chunks) {
		t.Fatal("modification changed nothing")
	}
}

func TestFrequencyCDFSorted(t *testing.T) {
	d := GenerateFSL(smallFSL())
	cdf := d.FrequencyCDF()
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("FrequencyCDF not sorted")
		}
	}
}
