package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/mle"
)

// countingBackend counts Load calls: every sealed container a restore
// reads, whole, goes through here.
type countingBackend struct {
	container.Backend
	loads atomic.Int64
}

func (b *countingBackend) Load(shard, id int) (*container.Container, error) {
	b.loads.Add(1)
	return b.Backend.Load(shard, id)
}

// windowFixture backs up gens generations of a 2 MiB stream — the first
// never seen, each later one the previous with a few scattered edits —
// into a sealed 16-shard store behind a countingBackend, and returns the
// last generation's bytes and recipe.
func windowFixture(t *testing.T, containerBytes, gens int) (*Store, *countingBackend, []byte, *mle.Recipe) {
	t.Helper()
	cb := &countingBackend{Backend: container.NewMemBackend(DefaultShards)}
	store, err := NewStoreWithBackend(containerBytes, cb)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(301, 2<<20)
	var recipe *mle.Recipe
	for g := 0; g < gens; g++ {
		if g > 0 {
			rng := rand.New(rand.NewSource(int64(400 + g)))
			data = append([]byte(nil), data...)
			for edit := 0; edit < 6; edit++ {
				at := rng.Intn(len(data) - 4096)
				rng.Read(data[at : at+4096])
			}
		}
		if recipe, err = client.Backup(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		// Seal like a repository commit does, so every generation leaves
		// its own containers behind and every read is a backend Load.
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return store, cb, data, recipe
}

// restoreCounting restores recipe through a fresh client and returns how
// many containers the backend loaded for it.
func restoreCounting(t *testing.T, store *Store, cb *countingBackend, recipe *mle.Recipe, want []byte, workers int, budget int64) (loads, peak int64) {
	t.Helper()
	rc, err := NewClient(store, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rc.windowBudget = budget
	before := cb.loads.Load()
	var out bytes.Buffer
	if err := rc.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("restored bytes differ from the original stream")
	}
	return cb.loads.Load() - before, rc.windowPeak
}

// TestRestoreReadsEachContainerOnce: when the live set fits the window's
// geometry-derived budget, a restore loads exactly the distinct containers
// its recipe references — for a never-seen stream and for the fifth
// generation of an incremental chain, whose chunks are scattered over five
// backups' containers.
func TestRestoreReadsEachContainerOnce(t *testing.T) {
	for _, gens := range []int{1, 5} {
		t.Run(fmt.Sprintf("generations=%d", gens), func(t *testing.T) {
			store, cb, data, recipe := windowFixture(t, 128<<10, gens)
			client, err := NewClient(store, Config{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := client.planRestore(recipe.Entries)
			if err != nil {
				t.Fatal(err)
			}
			distinct := int64(len(plan.containers))
			if gens > 1 && distinct <= int64(DefaultShards) {
				t.Fatalf("fixture: generation %d references only %d containers", gens, distinct)
			}
			for _, workers := range []int{1, 4} {
				loads, peak := restoreCounting(t, store, cb, recipe, data, workers, 0)
				if loads != distinct {
					t.Fatalf("workers=%d: %d container loads for %d distinct containers", workers, loads, distinct)
				}
				if budget := client.restoreBudget(); peak > budget {
					t.Fatalf("workers=%d: window peaked at %d bytes over a budget of %d", workers, peak, budget)
				}
			}
		})
	}
}

// beladyLoads is the reference the window is held to: a farthest-next-use
// cache of budget bytes stepping through the plan one entry at a time, no
// prefetch, no concurrency. A miss reads the container, the entry takes
// its use — a container leaves when its last use has passed, so one read
// for its only remaining use displaces nothing — and then the cache evicts
// down to the budget, sparing the one just read.
func beladyLoads(plan *restorePlan, size []int64, budget int64) (loads int64) {
	next := make([]int, len(plan.containers))
	cached := make([]bool, len(plan.containers))
	var used int64
	evictFarthest := func(spare int) bool {
		victim, far := -1, -1
		for k, in := range cached {
			if in && k != spare {
				if nu := plan.containers[k].uses[next[k]]; nu > far {
					victim, far = k, nu
				}
			}
		}
		if victim < 0 {
			return false
		}
		cached[victim] = false
		used -= size[victim]
		return true
	}
	for _, k := range plan.cidx {
		miss := !cached[k]
		if miss {
			for used > budget && evictFarthest(-1) {
			}
			loads++
			cached[k] = true
			used += size[k]
		}
		if next[k]++; next[k] == len(plan.containers[k].uses) {
			cached[k] = false
			used -= size[k]
		}
		for miss && used > budget && evictFarthest(k) {
		}
	}
	return loads
}

// TestRestoreWindowMatchesBelady forces the window's budget far below the
// fifth generation's live set. The restore must still be byte-identical,
// load exactly what the reference farthest-next-use cache loads over the
// same plan — at every worker count, because its decisions do not depend
// on timing — and never retain more than the budget plus one container.
func TestRestoreWindowMatchesBelady(t *testing.T) {
	const containerBytes = 32 << 10
	store, cb, data, recipe := windowFixture(t, containerBytes, 5)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := client.planRestore(recipe.Entries)
	if err != nil {
		t.Fatal(err)
	}
	size := make([]int64, len(plan.containers))
	var largest, total int64
	for k, pc := range plan.containers {
		c, err := cb.Backend.Load(pc.ref.shard, pc.ref.id)
		if err != nil {
			t.Fatal(err)
		}
		size[k] = int64(c.Bytes)
		total += size[k]
		if size[k] > largest {
			largest = size[k]
		}
	}
	if largest > plan.nominal {
		t.Fatalf("fixture: a %d-byte container exceeds the plan's nominal %d", largest, plan.nominal)
	}
	distinct := int64(len(plan.containers))
	for _, budget := range []int64{1, containerBytes / 2, 3 * containerBytes, 8*containerBytes + 1000, total / 2} {
		want := beladyLoads(plan, size, budget)
		if budget < total/4 && want <= distinct {
			t.Fatalf("fixture: a %d-byte budget does not force a reload (%d loads, %d containers)", budget, want, distinct)
		}
		for _, workers := range []int{1, 2, 8} {
			loads, peak := restoreCounting(t, store, cb, recipe, data, workers, budget)
			if loads != want {
				t.Errorf("budget=%d workers=%d: %d container loads, reference cache makes %d", budget, workers, loads, want)
			}
			if peak > budget+largest {
				t.Errorf("budget=%d workers=%d: window peaked at %d bytes, over budget + one container (%d)", budget, workers, peak, budget+largest)
			}
		}
	}
}
