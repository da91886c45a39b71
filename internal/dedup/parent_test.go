package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"freqdedup/internal/chunker"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// parentChunking makes ~1 KiB chunks, so a few MiB of generation spans
// several upload windows and window slots are reused.
var parentChunking = chunker.Params{Min: 256, Avg: 1024, Max: 4096}

// generations returns n backup generations: a random base, then each
// generation rewrites a few short regions of the previous one, so most
// chunks repeat from one generation to the next.
func generations(seed int64, size, n int) [][]byte {
	gens := [][]byte{randData(seed, size)}
	rng := rand.New(rand.NewSource(seed + 1))
	for len(gens) < n {
		g := append([]byte(nil), gens[len(gens)-1]...)
		for r := 0; r < 4; r++ {
			at := rng.Intn(len(g) - 4096)
			rng.Read(g[at : at+1+rng.Intn(4096)])
		}
		gens = append(gens, g)
	}
	return gens
}

// refCountingSink forwards windows to a store, counting reference-only
// chunks.
type refCountingSink struct {
	*Store
	refs int
}

func (s *refCountingSink) PutBatchOwned(chunks []PutChunk) ([]bool, error) {
	for _, c := range chunks {
		if c.Ref {
			s.refs++
		}
	}
	return s.Store.PutBatchOwned(chunks)
}

// parentStores are the store geometries the table must be invisible in.
func parentStores(t *testing.T) map[string]func(t *testing.T) *Store {
	const containerBytes = 64 << 10
	out := map[string]func(t *testing.T) *Store{}
	for _, shards := range []int{1, 16} {
		shards := shards
		out[fmt.Sprintf("map-%dshard", shards)] = func(t *testing.T) *Store {
			return NewStoreWithShards(containerBytes, shards)
		}
		out[fmt.Sprintf("persistent-%dshard", shards)] = func(t *testing.T) *Store {
			s := createPersistentStore(t, t.TempDir(), shards, containerBytes)
			t.Cleanup(func() { s.Close() })
			return s
		}
	}
	return out
}

// TestParentTableBitIdentical backs the same generation stream up twice,
// into two stores of the same geometry: once plainly and once with each
// generation's parent table. Recipes, the observed upload stream, Stats()
// and every shard's container bytes must be equal, while the table run
// really uploads references. Both stores build the table, so the index's
// lookup counters see the same traffic; only the table run uses it.
func TestParentTableBitIdentical(t *testing.T) {
	gens := generations(7, 2<<20, 3)
	for name, newStore := range parentStores(t) {
		for _, workers := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				plain, table := &refCountingSink{Store: newStore(t)}, &refCountingSink{Store: newStore(t)}
				var plainRecipe, tableRecipe *mle.Recipe
				for g, data := range gens {
					backup := func(sink *refCountingSink, prev *mle.Recipe, use bool) (*mle.Recipe, []trace.ChunkRef) {
						var order []trace.ChunkRef
						cfg := Config{Chunking: parentChunking, Workers: workers}
						cfg.Observer = observerFunc(func(refs []trace.ChunkRef) error {
							order = append(order, refs...)
							return nil
						})
						client, err := NewSinkClient(sink, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if prev != nil {
							if pt := sink.ParentTable(prev); use {
								client.SetParent(pt)
							}
						}
						recipe, err := client.Backup(bytes.NewReader(data))
						if err != nil {
							t.Fatalf("gen %d: %v", g, err)
						}
						return recipe, order
					}
					var plainOrder, tableOrder []trace.ChunkRef
					plainRecipe, plainOrder = backup(plain, plainRecipe, false)
					refsBefore := table.refs
					tableRecipe, tableOrder = backup(table, tableRecipe, true)
					if !reflect.DeepEqual(tableRecipe, plainRecipe) {
						t.Fatalf("gen %d: recipe differs with the parent table", g)
					}
					if !reflect.DeepEqual(tableOrder, plainOrder) {
						t.Fatalf("gen %d: observed upload stream differs with the parent table", g)
					}
					if got, want := table.Stats(), plain.Stats(); got != want {
						t.Fatalf("gen %d: stats %+v, want %+v", g, got, want)
					}
					for i := range plain.shards {
						sameLayout(t, table.shards[i].containers, plain.shards[i].containers)
					}
					if hits := table.refs - refsBefore; g > 0 && hits < len(tableRecipe.Entries)/2 {
						t.Fatalf("gen %d: %d of %d chunks uploaded as references", g, hits, len(tableRecipe.Entries))
					}
				}
				if plain.refs != 0 {
					t.Fatalf("the run without a table uploaded %d references", plain.refs)
				}
				var out bytes.Buffer
				client, err := NewClient(table.Store, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := client.Restore(tableRecipe, &out); err != nil || !bytes.Equal(out.Bytes(), gens[len(gens)-1]) {
					t.Fatalf("restore of the last generation: %v, identical %v", err, bytes.Equal(out.Bytes(), gens[len(gens)-1]))
				}
			})
		}
	}
}

// TestParentTableFailsClosed gives a backup a table entry whose
// fingerprint the store does not hold. The backup must fail with
// ErrNotFound, and the store must have recorded exactly what a plain
// backup of the same stream puts before that chunk: the windows before
// its window, and in its window the chunks of lower shards and the
// chunks of its own shard that come before it.
func TestParentTableFailsClosed(t *testing.T) {
	gens := generations(11, 3<<20, 2)
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Chunking: parentChunking}
			newStore := func() (*Store, *mle.Recipe) {
				s := NewStoreWithShards(64<<10, shards)
				c, err := NewClient(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := c.Backup(bytes.NewReader(gens[0]))
				if err != nil {
					t.Fatal(err)
				}
				return s, r
			}
			// The reference run: the child backed up without a table.
			ref, _ := newStore()
			refClient, err := NewClient(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			child, err := refClient.Backup(bytes.NewReader(gens[1]))
			if err != nil {
				t.Fatal(err)
			}

			store, parent := newStore()
			table := store.ParentTable(parent)
			// The failing chunk: the first occurrence, past the first
			// window, of a chunk the table holds.
			seen := map[mle.Key]bool{}
			p := -1
			for i, e := range child.Entries {
				if _, ok := table[e.Key]; ok && !seen[e.Key] && i > uploadWindowChunks+10 {
					p = i
					break
				}
				seen[e.Key] = true
			}
			if p < 0 {
				t.Fatal("no repeated chunk past the first window")
			}
			bogus := table[child.Entries[p].Key]
			bogus.Fingerprint = fphash.FromBytes([]byte("a chunk nobody stored"))
			table[bogus.Key] = bogus

			// What must have been recorded: the reference run's puts before
			// the failing one, replayed onto a store holding the parent.
			want, _ := newStore()
			var before []PutChunk
			lo := p / uploadWindowChunks * uploadWindowChunks
			bs := bogus.Fingerprint.Shard(shards)
			for i, e := range child.Entries[:min(lo+uploadWindowChunks, len(child.Entries))] {
				if s := e.Fingerprint.Shard(shards); i >= lo && (i == p || s > bs || s == bs && i > p) {
					continue
				}
				ct, err := ref.Get(e.Fingerprint)
				if err != nil {
					t.Fatal(err)
				}
				before = append(before, PutChunk{FP: e.Fingerprint, Data: ct})
			}
			if _, err := want.PutBatch(before); err != nil {
				t.Fatal(err)
			}

			client, err := NewClient(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			client.SetParent(table)
			if _, err := client.Backup(bytes.NewReader(gens[1])); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Backup with a dangling table entry = %v, want ErrNotFound", err)
			}
			if got, want := storedStats(store), storedStats(want); got != want {
				t.Fatalf("stats after the failed backup %+v, want %+v", got, want)
			}
			if store.Contains(bogus.Fingerprint) {
				t.Fatal("the dangling reference was indexed")
			}
		})
	}
}

// TestPutReferenceOnly pins the store's side of a reference: a held
// fingerprint counts as a duplicate of its size, a missing one fails with
// ErrNotFound and records nothing, and an empty Data without the marker
// is an ordinary zero-length chunk.
func TestPutReferenceOnly(t *testing.T) {
	for _, shards := range []int{1, 16} {
		s := NewStoreWithShards(0, shards)
		data := []byte("stored chunk")
		fp := fphash.FromBytes(data)
		if _, err := s.Put(fp, data); err != nil {
			t.Fatal(err)
		}
		dups, err := s.PutBatchOwned([]PutChunk{{FP: fp, Ref: true, Size: uint32(len(data))}})
		if err != nil || !dups[0] {
			t.Fatalf("shards=%d: held reference = %v, %v; want a duplicate", shards, dups, err)
		}
		held := storedStats(s)
		if held.LogicalChunks != 2 || held.LogicalBytes != 2*uint64(len(data)) || held.UniqueChunks != 1 {
			t.Fatalf("shards=%d: stats after a held reference %+v", shards, held)
		}
		missing := fphash.FromBytes([]byte("never stored"))
		if _, err := s.PutBatchOwned([]PutChunk{{FP: missing, Ref: true, Size: 9}}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("shards=%d: dangling reference = %v, want ErrNotFound", shards, err)
		}
		if got := storedStats(s); got != held {
			t.Fatalf("shards=%d: a dangling reference changed the stats: %+v, want %+v", shards, got, held)
		}
		empty := fphash.FromBytes(nil)
		if dups, err := s.PutBatch([]PutChunk{{FP: empty, Data: []byte{}}}); err != nil || dups[0] {
			t.Fatalf("shards=%d: zero-length chunk = %v, %v; want stored", shards, dups, err)
		}
		if !s.Contains(empty) {
			t.Fatalf("shards=%d: zero-length chunk not indexed", shards)
		}
	}
}

// TestParentTableKeepsHeldChunksOnly checks Store.ParentTable's filter: an
// entry whose chunk the store does not hold stays out of the table, so
// its chunk is encrypted and stored again rather than referenced.
func TestParentTableKeepsHeldChunksOnly(t *testing.T) {
	s := NewStore(0)
	data := []byte("held chunk")
	held := mle.RecipeEntry{Fingerprint: fphash.FromBytes(data), Key: mle.ConvergentKey([]byte("p1")), Size: uint32(len(data))}
	lost := mle.RecipeEntry{Fingerprint: fphash.FromBytes([]byte("lost")), Key: mle.ConvergentKey([]byte("p2")), Size: 4}
	if _, err := s.Put(held.Fingerprint, data); err != nil {
		t.Fatal(err)
	}
	table := s.ParentTable(&mle.Recipe{Entries: []mle.RecipeEntry{held, lost, held}})
	if len(table) != 1 || table[held.Key] != held {
		t.Fatalf("table %v, want only the held entry", table)
	}
}

// storedStats is s.Stats() without the index lookup counters: they count
// the lookups a failed put makes too, not what the store holds.
func storedStats(s *Store) trace.DedupStats {
	st := s.Stats()
	return trace.DedupStats{LogicalBytes: st.LogicalBytes, PhysicalBytes: st.PhysicalBytes,
		LogicalChunks: st.LogicalChunks, UniqueChunks: st.UniqueChunks}
}
