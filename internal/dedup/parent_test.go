package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"freqdedup/internal/chunker"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
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
// generation's parent, its cuts predicted. Recipes, the observed upload
// stream, Stats() and every shard's container bytes must be equal, while
// the parent run really uploads references and cuts most bytes where the
// parent predicts. Both clients are given the parent, so the index's
// lookup counters see the same traffic; the plain one drops it again. The
// scramble rows run the convergent segment stage; the MinHash rows (with
// scrambling) and the server-aided rows hit by sum and key, from the sums
// the parent's backup kept.
func TestParentTableBitIdentical(t *testing.T) {
	gens := generations(7, 2<<20, 3)
	stores := parentStores(t)
	for name, newStore := range stores {
		for _, workers := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				checkParentBitIdentical(t, gens, newStore, Config{Chunking: parentChunking, Workers: workers})
			})
		}
	}
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("scramble/workers=%d", workers), func(t *testing.T) {
			checkParentBitIdentical(t, gens, stores["persistent-16shard"],
				Config{Chunking: parentChunking, Workers: workers, Scramble: true, ScrambleSeed: 5})
		})
	}
	deriver := mle.NewLocalDeriver([]byte("parent table"))
	for _, workers := range []int{1, 0} {
		for name, cfg := range map[string]Config{
			"minhash-scramble": {Encryption: EncMinHash, Scramble: true, ScrambleSeed: 5,
				Segments: segment.Params{MinBytes: 64 << 10, AvgBytes: 128 << 10, MaxBytes: 256 << 10}},
			"server-aided": {Encryption: EncServerAided},
		} {
			cfg.Chunking, cfg.Workers, cfg.Deriver = parentChunking, workers, deriver
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				checkParentBitIdentical(t, gens, stores["persistent-16shard"], cfg)
			})
		}
	}
}

func checkParentBitIdentical(t *testing.T, gens [][]byte, newStore func(t *testing.T) *Store, cfg Config) {
	plain, table := &refCountingSink{Store: newStore(t)}, &refCountingSink{Store: newStore(t)}
	var plainRecipe, tableRecipe *mle.Recipe
	var plainSums, tableSums []mle.Key
	for g, data := range gens {
		backup := func(sink *refCountingSink, prev *mle.Recipe, sums []mle.Key, use bool) (*mle.Recipe, []mle.Key, []trace.ChunkRef, int64) {
			var order []trace.ChunkRef
			cfg := cfg
			cfg.Observer = observerFunc(func(refs []trace.ChunkRef) error {
				order = append(order, refs...)
				return nil
			})
			client, err := NewClient(sink.Store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			client.sink = sink // count the references on their way to the store
			client.SetParent(prev, sums, true)
			if !use {
				client.SetParent(nil, nil, false)
			}
			recipe, err := client.Backup(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("gen %d: %v", g, err)
			}
			return recipe, client.Sums(), order, client.predicted.Load()
		}
		var plainOrder, tableOrder []trace.ChunkRef
		var plainPredicted, tablePredicted int64
		plainRecipe, plainSums, plainOrder, plainPredicted = backup(plain, plainRecipe, plainSums, false)
		refsBefore := table.refs
		tableRecipe, tableSums, tableOrder, tablePredicted = backup(table, tableRecipe, tableSums, true)
		if !reflect.DeepEqual(tableRecipe, plainRecipe) {
			t.Fatalf("gen %d: recipe differs with the parent table", g)
		}
		checkSums(t, tableSums, tableRecipe, data, cfg.Encryption)
		if !reflect.DeepEqual(tableOrder, plainOrder) {
			t.Fatalf("gen %d: observed upload stream differs with the parent table", g)
		}
		if got, want := table.Stats(), plain.Stats(); got != want {
			t.Fatalf("gen %d: stats %+v, want %+v", g, got, want)
		}
		for i := range plain.shards {
			sameLayout(t, table.shards[i].containers, plain.shards[i].containers)
		}
		hits := table.refs - refsBefore
		t.Logf("gen %d: %d of %d chunks uploaded as references, %d of %d bytes cut as predicted", g, hits, len(tableRecipe.Entries), tablePredicted, len(data))
		if g > 0 && hits < len(tableRecipe.Entries)/2 {
			t.Fatalf("gen %d: %d of %d chunks uploaded as references", g, hits, len(tableRecipe.Entries))
		}
		if plainPredicted != 0 || g > 0 && tablePredicted < int64(len(data))/2 {
			t.Fatalf("gen %d: %d of %d bytes cut as predicted (%d without a parent)", g, tablePredicted, len(data), plainPredicted)
		}
	}
	if plain.refs != 0 {
		t.Fatalf("the run without a table uploaded %d references", plain.refs)
	}
	var out bytes.Buffer
	client, err := NewClient(table.Store, Config{Workers: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Restore(tableRecipe, &out); err != nil || !bytes.Equal(out.Bytes(), gens[len(gens)-1]) {
		t.Fatalf("restore of the last generation: %v, identical %v", err, bytes.Equal(out.Bytes(), gens[len(gens)-1]))
	}
}

// checkSums holds a backup's Sums to its recipe and data: nil under
// convergent encryption, and otherwise each entry's plaintext SHA-256.
func checkSums(t *testing.T, sums []mle.Key, recipe *mle.Recipe, data []byte, enc Encryption) {
	t.Helper()
	if enc == 0 || enc == EncConvergent {
		if sums != nil {
			t.Fatalf("a convergent backup kept %d sums", len(sums))
		}
		return
	}
	if len(sums) != len(recipe.Entries) {
		t.Fatalf("%d sums for %d recipe entries", len(sums), len(recipe.Entries))
	}
	off := 0
	for i, e := range recipe.Entries {
		if sums[i] != mle.ConvergentKey(data[off:off+int(e.Size)]) {
			t.Fatalf("sum %d is not its chunk's SHA-256", i)
		}
		off += int(e.Size)
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
			client, err := NewClient(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			client.SetParent(parent, nil, true)
			table := client.parent
			// The failing chunk: the first occurrence, past the first
			// window, of a chunk the table holds.
			seen := map[mle.Key]bool{}
			p := -1
			for i, e := range child.Entries {
				if _, ok := table.hit(e.Key, e.Key); ok && !seen[e.Key] && i > uploadWindowChunks+10 {
					p = i
					break
				}
				seen[e.Key] = true
			}
			if p < 0 {
				t.Fatal("no repeated chunk past the first window")
			}
			bogus := &table.entries[table.pos[child.Entries[p].Key]]
			bogus.Fingerprint = fphash.FromBytes([]byte("a chunk nobody stored"))

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

// TestParentTableKeepsHeldChunksOnly checks the held filter of a
// store's client: a parent entry whose chunk the store does not hold is
// no hit, so its chunk is encrypted and stored again rather than
// referenced. A sink client, which has no store to ask, hits every key.
// Under MinHash a hit needs the sums, and the entry's key as well as its
// sum.
func TestParentTableKeepsHeldChunksOnly(t *testing.T) {
	s := NewStore(0)
	data := []byte("held chunk")
	held := mle.RecipeEntry{Fingerprint: fphash.FromBytes(data), Key: mle.ConvergentKey([]byte("p1")), Size: uint32(len(data))}
	lost := mle.RecipeEntry{Fingerprint: fphash.FromBytes([]byte("lost")), Key: mle.ConvergentKey([]byte("p2")), Size: 4}
	if _, err := s.Put(held.Fingerprint, data); err != nil {
		t.Fatal(err)
	}
	parent := &mle.Recipe{Entries: []mle.RecipeEntry{held, lost, held}}
	c, err := NewClient(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetParent(parent, nil, false)
	if e, ok := c.parent.hit(held.Key, held.Key); !ok || e != held {
		t.Fatalf("held entry: %v, %v", e, ok)
	}
	if _, ok := c.parent.hit(lost.Key, lost.Key); ok {
		t.Fatal("an entry the store does not hold is a hit")
	}
	sc, err := NewSinkClient(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc.SetParent(parent, nil, false)
	if e, ok := sc.parent.hit(lost.Key, lost.Key); !ok || e != lost {
		t.Fatalf("a sink client's parent entry: %v, %v", e, ok)
	}

	m, err := NewClient(s, Config{Encryption: EncMinHash, Deriver: mle.NewLocalDeriver([]byte("k"))})
	if err != nil {
		t.Fatal(err)
	}
	if m.SetParent(parent, nil, false); m.parent != nil {
		t.Fatal("a MinHash client took a parent without its sums")
	}
	if m.SetParent(parent, make([]mle.Key, 2), false); m.parent != nil {
		t.Fatal("a MinHash client took a parent with too few sums")
	}
	sum := mle.ConvergentKey(data)
	m.SetParent(parent, []mle.Key{sum, {}, sum}, false)
	if e, ok := m.parent.hit(sum, held.Key); !ok || e != held {
		t.Fatalf("held entry by sum and key: %v, %v", e, ok)
	}
	if _, ok := m.parent.hit(sum, lost.Key); ok {
		t.Fatal("a chunk under another key is a hit")
	}
	if _, ok := m.parent.hit(held.Key, held.Key); ok {
		t.Fatal("an entry's key is taken for its sum")
	}
}

// TestParentTableNeedsSameKey gives a MinHash backup a parent whose every
// sum it repeats but under another key manager's keys: the cuts are still
// predicted, since the sums prove them, but no chunk is a hit, and the
// recipe equals a backup without a parent.
func TestParentTableNeedsSameKey(t *testing.T) {
	data := generations(13, 1<<20, 1)[0]
	cfg := func(secret string) Config {
		return Config{Chunking: parentChunking, Encryption: EncMinHash, Deriver: mle.NewLocalDeriver([]byte(secret))}
	}
	store := NewStore(0)
	pc, err := NewClient(store, cfg("old"))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := pc.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewClient(NewStore(0), cfg("new"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sink := &refCountingSink{Store: store}
	c, err := NewClient(store, cfg("new"))
	if err != nil {
		t.Fatal(err)
	}
	c.sink = sink
	c.SetParent(parent, pc.Sums(), true)
	got, err := c.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recipe differs with a parent under other keys")
	}
	if sink.refs != 0 || c.predicted.Load() < int64(len(data))/2 {
		t.Fatalf("%d references, %d of %d bytes cut as predicted", sink.refs, c.predicted.Load(), len(data))
	}
}

// TestPredictedCutsOnFileserver backs up a file-server generation shaped
// like the benchmark's local-incr inputs with its parent: at least 85 %
// of its bytes must be cut where the parent predicts, and the recipe must
// equal a backup without one.
func TestPredictedCutsOnFileserver(t *testing.T) {
	d, err := workload.Generate("fileserver", workload.Config{Seed: 11, Backups: 3, TotalBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var parent *mle.Recipe
	store := NewStoreWithShards(0, 16)
	for g, b := range d.Backups {
		data, err := io.ReadAll(workload.DataReader(b))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewClient(NewStore(0), Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Backup(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		c.SetParent(parent, nil, true)
		if parent, err = c.Backup(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parent, want) {
			t.Fatalf("gen %d: recipe differs with the parent", g)
		}
		share := float64(c.predicted.Load()) / float64(len(data))
		t.Logf("gen %d: %.1f %% of %d bytes cut as predicted", g, 100*share, len(data))
		if g > 0 && share < 0.85 {
			t.Fatalf("gen %d: %.1f %% of the bytes cut as predicted, want at least 85 %%", g, 100*share)
		}
	}
}

// TestFingerprintFromConvergentKey pins what the segment stage relies on
// when it takes a chunk's fingerprint from its sum, the convergent key:
// the fingerprint is the sum's prefix, under every encryption.
func TestFingerprintFromConvergentKey(t *testing.T) {
	for _, enc := range []Encryption{EncConvergent, EncMinHash, EncServerAided} {
		p := &workerPool{c: &Client{cfg: Config{Encryption: enc}}}
		for _, data := range [][]byte{nil, []byte("a chunk"), randData(3, 9000)} {
			job := encJob{chunk: chunker.Chunk{Data: data}}
			p.fingerprint(&job)
			if job.chunk.Fingerprint != fphash.FromBytes(data) || !job.summed || job.sum != mle.ConvergentKey(data) {
				t.Fatalf("encryption %d, %d bytes: fingerprint %v summed %v, want %v", enc, len(data), job.chunk.Fingerprint, job.summed, fphash.FromBytes(data))
			}
		}
	}
}

// storedStats is s.Stats() without the index lookup counters: they count
// the lookups a failed put makes too, not what the store holds.
func storedStats(s *Store) trace.DedupStats {
	st := s.Stats()
	return trace.DedupStats{LogicalBytes: st.LogicalBytes, PhysicalBytes: st.PhysicalBytes,
		LogicalChunks: st.LogicalChunks, UniqueChunks: st.UniqueChunks}
}
