package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

func multiset(d *trace.Dataset) map[fphash.Fingerprint]int {
	m := map[fphash.Fingerprint]int{}
	for _, b := range d.Backups {
		for _, c := range b.Chunks {
			m[c.FP]++
		}
	}
	return m
}

// TestSeedDeterminism pins the package's reproducibility contract for
// every registered workload, quick-check style over random seeds: the
// same seed generates an identical dataset (labels, order, fingerprints
// and sizes), and distinct seeds generate distinct fingerprint
// multisets.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range List() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prop := func(rawSeed int16) bool {
				seed := int64(rawSeed)
				cfg := Config{Seed: seed, Backups: 3, TotalBytes: 1 << 20}
				a, err := Generate(name, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b, err := Generate(name, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("seed %d: two generations differ", seed)
					return false
				}
				// A different seed must not reproduce the fingerprint
				// multiset.
				cfg2 := cfg
				cfg2.Seed = seed + 1
				c, err := Generate(name, cfg2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed+1, err)
				}
				ma, mc := multiset(a), multiset(c)
				if len(ma) == len(mc) {
					same := true
					for fp, n := range ma {
						if mc[fp] != n {
							same = false
							break
						}
					}
					if same {
						t.Errorf("seeds %d and %d generated identical fingerprint multisets", seed, seed+1)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInjectedRngDeterminism checks the Rng injection path: an injected
// source takes precedence over the seed and is consumed by generation, so
// two generators fed sources with the same seed agree with each other and
// with the plain-Seed path.
func TestInjectedRngDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, Backups: 3, TotalBytes: 1 << 20}
	plain, err := Generate("fileserver", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgRng := cfg
	cfgRng.Seed = 0
	cfgRng.Rng = cfg.rng() // fresh stream seeded 99
	injected, err := Generate("fileserver", cfgRng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, injected) {
		t.Fatal("injected Rng with the same seed diverged from the Seed path")
	}
}
