package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freqdedup/internal/fphash"
)

// randomDataset builds an arbitrary small dataset from a seed, for
// property-based checks.
func randomDataset(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: "prop"}
	nBackups := 1 + rng.Intn(4)
	for b := 0; b < nBackups; b++ {
		bk := &Backup{Label: string(rune('a' + b))}
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			bk.Chunks = append(bk.Chunks, ChunkRef{
				FP:   fphash.FromUint64(rng.Uint64() | 1),
				Size: uint32(1 + rng.Intn(1<<16)),
			})
		}
		d.Backups = append(d.Backups, bk)
	}
	return d
}

// TestStatsInvariantsProperty: physical <= logical, unique <= logical
// chunks, and saving in [0, 1) for any dataset.
func TestStatsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		st := randomDataset(seed).Stats()
		if st.PhysicalBytes > st.LogicalBytes {
			return false
		}
		if st.UniqueChunks > st.LogicalChunks {
			return false
		}
		s := st.Saving()
		return s >= 0 && s < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFrequencyCDFMassProperty: the CDF's total mass equals the logical
// chunk count.
func TestFrequencyCDFMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDataset(seed)
		var mass int
		for _, n := range d.FrequencyCDF() {
			mass += n
		}
		return mass == d.Stats().LogicalChunks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
