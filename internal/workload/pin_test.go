package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestNativeCompositionsPinned holds the six native compositions to
// SHA-256 sums over every backup's label, fingerprints and sizes. The
// benchmark's inputs are fileserver datasets (the last row is its
// local-incr shape), so a moved sum moves the benchmark's stored_ratio
// and chunk counts: a diff is a behaviour change, not a fixture to
// re-record.
func TestNativeCompositionsPinned(t *testing.T) {
	small := Config{Seed: 7, Backups: 4, TotalBytes: 4 << 20}
	for _, row := range []struct {
		name string
		cfg  Config
		sum  string
	}{
		{"fileserver", small, "f38520b1773bbcf5d5977191256608c214070df8ae0176e47ea59a7d30ea1b31"},
		{"vmfarm", small, "b3d3358764c1606f8bfb289e55e3dda3ef3d9aace983ecc0ada6a3fe4a9ea6d0"},
		{"database", small, "29692562c69f9bf357aacf02898067efb473f192e7968ee22db52ef5006c6043"},
		{"media", small, "f707040416462c3fc3b17ae60145ac8087cf7ce7ebc01bd4c5dfd81a9932a493"},
		{"compressed", small, "e53f356b38a63dca4c45232a0fec22a3abc86a95504734f4e2fc818764cec2e0"},
		{"teamshare", small, "fddf4963a0cc3e710ca2a3523e42a27b1fa3b4173ad107541375c9fbbacf6f74"},
		{"fileserver", Config{Seed: 11, Backups: 5, TotalBytes: 16 << 20}, "c866e2c4803392def8f1619443df271210974e2e6a1e7381db3781e4fa38115a"},
	} {
		d, err := Generate(row.name, row.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var size [4]byte
		for _, b := range d.Backups {
			h.Write([]byte(b.Label))
			h.Write([]byte{0})
			for _, c := range b.Chunks {
				h.Write(c.FP[:])
				binary.LittleEndian.PutUint32(size[:], c.Size)
				h.Write(size[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != row.sum {
			t.Errorf("%s %+v: sum %s, pinned %s", row.name, row.cfg, got, row.sum)
		}
	}
}
