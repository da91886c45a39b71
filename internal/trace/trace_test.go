package trace

import (
	"math/rand"
	"testing"

	"freqdedup/internal/fphash"
)

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
		s := int(m.Draw(rng))
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
	if fixed.Draw(rng) != 4096 {
		t.Fatal("fixed model must always return the fixed size")
	}
}

func TestFrequencyCDFSorted(t *testing.T) {
	// Fingerprints drawn from a small, skewed pool repeat at many
	// different frequencies.
	rng := rand.New(rand.NewSource(1))
	d := &Dataset{Name: "skewed"}
	for b := 0; b < 3; b++ {
		bk := &Backup{Label: "b"}
		for i := 0; i < 2000; i++ {
			fp := fphash.FromUint64(1 + uint64(rng.ExpFloat64()*20))
			bk.Chunks = append(bk.Chunks, ChunkRef{FP: fp, Size: 4096})
		}
		d.Backups = append(d.Backups, bk)
	}
	cdf := d.FrequencyCDF()
	if cdf[0] == cdf[len(cdf)-1] {
		t.Fatal("test dataset has a flat frequency distribution")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("FrequencyCDF not sorted")
		}
	}
}
