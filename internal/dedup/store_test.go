package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"freqdedup/internal/chunker"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

func TestNewStoreWithShardsValidation(t *testing.T) {
	if got := NewStore(0).ShardCount(); got != DefaultShards {
		t.Fatalf("NewStore shard count = %d, want %d", got, DefaultShards)
	}
	if got := NewStoreWithShards(0, 0).ShardCount(); got != DefaultShards {
		t.Fatalf("shards=0 count = %d, want %d", got, DefaultShards)
	}
	for _, bad := range []int{-1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d did not panic", bad)
				}
			}()
			NewStoreWithShards(0, bad)
		}()
	}
}

func TestPutBatchMatchesSequentialPuts(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			chunks := make([]PutChunk, 0, 300)
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 100; i++ {
				data := randData(int64(i), 64+rng.Intn(256))
				c := PutChunk{FP: fphash.FromBytes(data), Data: data}
				// Each chunk three times: duplicates inside one batch must
				// be detected exactly like sequential Puts detect them.
				chunks = append(chunks, c, c, c)
			}
			rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

			seq := NewStoreWithShards(0, shards)
			seqDups := make([]bool, len(chunks))
			for i, c := range chunks {
				var err error
				if seqDups[i], err = seq.Put(c.FP, c.Data); err != nil {
					t.Fatal(err)
				}
			}
			bat := NewStoreWithShards(0, shards)
			batDups, err := bat.PutBatch(chunks)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(seqDups, batDups) {
				t.Fatal("PutBatch duplicate flags differ from sequential Puts")
			}
			if seq.Stats() != bat.Stats() {
				t.Fatalf("stats differ: %+v vs %+v", seq.Stats(), bat.Stats())
			}
			for _, c := range chunks {
				got, err := bat.Get(c.FP)
				if err != nil || !bytes.Equal(got, c.Data) {
					t.Fatalf("Get(%v) after PutBatch wrong (%v)", c.FP, err)
				}
			}
		})
	}
}

func TestPutBatchEmpty(t *testing.T) {
	s := NewStore(0)
	if dups, err := s.PutBatch(nil); len(dups) != 0 || err != nil {
		t.Fatalf("PutBatch(nil) = %v, %v", dups, err)
	}
}

func TestStatsIdenticalAcrossShardCounts(t *testing.T) {
	load := func(s *Store) {
		for i := 0; i < 500; i++ {
			data := randData(int64(i%200), 128) // 200 unique, 500 logical
			if _, err := s.Put(fphash.FromBytes(data), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := trace.DedupStats{}
	for i, shards := range []int{1, 2, 16, 256} {
		s := NewStoreWithShards(0, shards)
		load(s)
		st := s.Stats()
		if st.UniqueChunks != 200 || st.LogicalChunks != 500 {
			t.Fatalf("shards=%d: stats %+v", shards, st)
		}
		if i == 0 {
			want = st
		} else if st != want {
			t.Fatalf("shards=%d: stats %+v differ from shards=1 %+v", shards, st, want)
		}
	}
}

// TestConcurrentPutGetPutBatch hammers one store from many goroutines
// mixing Put, Get, PutBatch, and Stats. Run it under -race; correctness
// is checked by final stats and content retrieval.
func TestConcurrentPutGetPutBatch(t *testing.T) {
	const (
		goroutines = 16
		perG       = 50
	)
	store := NewStoreWithShards(32<<10, DefaultShards)

	// A shared pool of chunks; every goroutine uploads a disjoint slice
	// plus the whole shared prefix, so cross-goroutine dedup is exercised.
	shared := make([]PutChunk, 64)
	for i := range shared {
		data := randData(int64(1000+i), 512)
		shared[i] = PutChunk{FP: fphash.FromBytes(data), Data: data}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Batched upload of the shared pool.
			if _, err := store.PutBatch(shared); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perG; i++ {
				data := randData(int64(g*perG+i), 256)
				fp := fphash.FromBytes(data)
				if _, err := store.Put(fp, data); err != nil {
					errs <- err
					return
				}
				got, err := store.Get(fp)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("goroutine %d: Get after Put failed (%v)", g, err)
					return
				}
				if _, err := store.Get(shared[i%len(shared)].FP); err != nil {
					errs <- fmt.Errorf("goroutine %d: shared chunk missing (%v)", g, err)
					return
				}
				_ = store.Stats() // aggregate while writers run
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := store.Stats()
	wantUnique := len(shared) + goroutines*perG
	if st.UniqueChunks != wantUnique {
		t.Fatalf("unique chunks = %d, want %d", st.UniqueChunks, wantUnique)
	}
	wantLogical := goroutines * (len(shared) + perG)
	if st.LogicalChunks != wantLogical {
		t.Fatalf("logical chunks = %d, want %d", st.LogicalChunks, wantLogical)
	}
	if store.UniqueChunks() != wantUnique {
		t.Fatalf("UniqueChunks() = %d, want %d", store.UniqueChunks(), wantUnique)
	}
	if store.ContainerCount() == 0 {
		t.Fatal("no containers")
	}
}

// --- Determinism against the pre-refactor serial engine. ---

// refStore replicates the original single-mutex engine byte for byte: one
// global index, one container sequence, Puts applied strictly in call
// order. It is the oracle the sharded store with shardCount=1 must match.
type refStore struct {
	index      map[fphash.Fingerprint]container.Location
	containers *container.Store
	order      []fphash.Fingerprint // every put, duplicates included
}

func newRefStore(containerBytes int) *refStore {
	if containerBytes == 0 {
		containerBytes = container.DefaultBytes
	}
	containers, err := container.NewWithBackend(containerBytes, container.NewMemBackend(1), 0, nil)
	if err != nil {
		panic(err)
	}
	return &refStore{
		index:      make(map[fphash.Fingerprint]container.Location),
		containers: containers,
	}
}

func (s *refStore) put(fp fphash.Fingerprint, data []byte) {
	s.order = append(s.order, fp)
	if _, ok := s.index[fp]; ok {
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	loc, err := s.containers.Append(container.Entry{FP: fp, Size: uint32(len(data)), Data: buf})
	if err != nil {
		panic(err) // memory backend never fails
	}
	s.index[fp] = loc
}

// refSegments segments a whole chunk list the way the live pipeline does:
// with the divisor the configuration fixes, not one measured on the stream.
func refSegments(refs []trace.ChunkRef, cfg Config) []segment.Segment {
	sp := segment.NewSplitter(cfg.Segments, segment.Divisor(cfg.Segments, cfg.Chunking.Avg))
	var segs []segment.Segment
	start := 0
	for i, ref := range refs {
		before, after := sp.Add(ref)
		if before {
			segs = append(segs, segment.Segment{Start: start, End: i})
			start = i
		}
		if after {
			segs = append(segs, segment.Segment{Start: start, End: i + 1})
			start = i + 1
		}
	}
	if start < len(refs) {
		segs = append(segs, segment.Segment{Start: start, End: len(refs)})
	}
	return segs
}

// refBackup replicates the original serial Client.Backup loop: chunk the
// whole stream, segment, scramble with the same RNG consumption, encrypt,
// and upload one chunk at a time.
func refBackup(t *testing.T, s *refStore, cfg Config, data []byte, rng *rand.Rand) *mle.Recipe {
	t.Helper()
	cdc, err := chunker.NewContentDefined(bytes.NewReader(data), cfg.Chunking)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunker.All(cdc)
	if err != nil {
		t.Fatal(err)
	}
	recipe := &mle.Recipe{Entries: make([]mle.RecipeEntry, len(chunks))}
	refs := make([]trace.ChunkRef, len(chunks))
	for i, ch := range chunks {
		refs[i] = trace.ChunkRef{FP: ch.Fingerprint, Size: uint32(ch.Size())}
	}
	for _, sg := range refSegments(refs, cfg) {
		var segKey mle.Key
		if cfg.Encryption == EncMinHash {
			fps := make([]fphash.Fingerprint, 0, sg.Len())
			for _, ref := range refs[sg.Start:sg.End] {
				fps = append(fps, ref.FP)
			}
			segKey, err = mle.NewMinHash(cfg.Deriver).SegmentKey(fps)
			if err != nil {
				t.Fatal(err)
			}
		}
		order := make([]int, sg.Len())
		for i := range order {
			order[i] = i
		}
		if cfg.Scramble {
			order = segment.ScrambleOrder(sg.Len(), rng)
		}
		for _, at := range order {
			idx := sg.Start + at
			ch := chunks[idx]
			var key mle.Key
			switch cfg.Encryption {
			case EncMinHash:
				key = segKey
			default:
				key = mle.ConvergentKey(ch.Data)
			}
			ct := mle.EncryptDeterministic(key, ch.Data)
			cfp := fphash.FromBytes(ct)
			s.put(cfp, ct)
			recipe.Entries[idx] = mle.RecipeEntry{Fingerprint: cfp, Key: key, Size: uint32(ch.Size())}
		}
	}
	return recipe
}

// sameLayout asserts two container sequences are bit-for-bit identical:
// same container IDs, same entries in the same order, same bytes.
func sameLayout(t *testing.T, got, want *container.Store) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("container count %d, want %d", got.Count(), want.Count())
	}
	for id := 0; ; id++ {
		gc, gerr := got.Container(id)
		wc, werr := want.Container(id)
		gok, wok := gerr == nil, werr == nil
		if gok != wok {
			t.Fatalf("container %d: exists %v, want %v", id, gok, wok)
		}
		if !gok {
			return
		}
		if gc.Bytes != wc.Bytes || len(gc.Entries) != len(wc.Entries) {
			t.Fatalf("container %d: %d entries/%d bytes, want %d/%d",
				id, len(gc.Entries), gc.Bytes, len(wc.Entries), wc.Bytes)
		}
		for i := range gc.Entries {
			ge, we := gc.Entries[i], wc.Entries[i]
			if ge.FP != we.FP || ge.Size != we.Size || !bytes.Equal(ge.Data, we.Data) {
				t.Fatalf("container %d entry %d differs", id, i)
			}
		}
	}
}

// TestShardCount1MatchesSerialEngine is the refactor's bit-for-bit
// guarantee: a single-shard store driven by the pipelined client — at any
// worker count — produces the identical recipe AND the identical physical
// container layout as the original serial engine.
func TestShardCount1MatchesSerialEngine(t *testing.T) {
	const containerBytes = 64 << 10
	data := randData(99, 2<<20)

	cfgs := map[string]Config{
		"convergent": {},
		"minhash-scrambled": {
			Encryption:   EncMinHash,
			Deriver:      mle.NewLocalDeriver([]byte("system secret")),
			Scramble:     true,
			ScrambleSeed: 7,
		},
	}
	for name, base := range cfgs {
		t.Run(name, func(t *testing.T) {
			// Oracle: the pre-refactor serial engine.
			refCfg := base
			refCfg.Chunking = chunker.DefaultParams()
			if refCfg.Segments == (segment.Params{}) {
				refCfg.Segments = segment.DefaultParams()
			}
			seed := refCfg.ScrambleSeed
			if seed == 0 {
				seed = 0x5eed
			}
			ref := newRefStore(containerBytes)
			refRecipe := refBackup(t, ref, refCfg, data, rand.New(rand.NewSource(seed)))
			// Second backup of mutated data exercises dedup hits too.
			data2 := mutate(data, 100)
			refRecipe2 := refBackup(t, ref, refCfg, data2, rand.New(rand.NewSource(seed+1)))

			for _, workers := range []int{1, 4, 0} {
				cfg := base
				cfg.Workers = workers
				store := NewStoreWithShards(containerBytes, 1)
				client, err := NewClient(store, cfg)
				if err != nil {
					t.Fatal(err)
				}
				recipe, err := client.Backup(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recipe, refRecipe) {
					t.Fatalf("workers=%d: recipe differs from serial engine", workers)
				}
				// refBackup reseeds per backup; mirror that with a fresh
				// client over the same store for the second stream.
				cfg2 := cfg
				cfg2.ScrambleSeed = seed + 1
				client2, err := NewClient(store, cfg2)
				if err != nil {
					t.Fatal(err)
				}
				recipe2, err := client2.Backup(bytes.NewReader(data2))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recipe2, refRecipe2) {
					t.Fatalf("workers=%d: second recipe differs from serial engine", workers)
				}
				sameLayout(t, store.shards[0].containers, ref.containers)
			}
		})
	}
}

// windowSink forwards every upload window to a store and records the
// window sizes.
type windowSink struct {
	*Store
	sizes []int
}

func (s *windowSink) PutBatchOwned(chunks []PutChunk) ([]bool, error) {
	s.sizes = append(s.sizes, len(chunks))
	return s.Store.PutBatchOwned(chunks)
}

// TestBackupDeterministicAcrossWorkerCounts checks the worker-count
// invariant on a default (multi-shard) store, with and without the
// segment stage: at 1, 2 and 8 workers, from a whole-buffer reader and
// from one that trickles 5000 bytes per Read, the recipe, the stats, every
// shard's container layout, the observed upload stream and the sequence of
// PutBatchOwned window sizes are all identical. The pool encrypts batches
// in whatever order it schedules them; none of that may show.
func TestBackupDeterministicAcrossWorkerCounts(t *testing.T) {
	data := randData(123, 10<<20) // one full upload window and a partial one
	for name, base := range map[string]Config{
		"convergent": {},
		"minhash-scramble": {
			Encryption:   EncMinHash,
			Deriver:      mle.NewLocalDeriver([]byte("k")),
			Scramble:     true,
			ScrambleSeed: 3,
		},
	} {
		t.Run(name, func(t *testing.T) {
			var (
				wantRecipe *mle.Recipe
				wantStats  trace.DedupStats
				wantStore  *Store
				wantOrder  []trace.ChunkRef
				wantSizes  []int
			)
			for _, workers := range []int{1, 2, 8} {
				for _, slow := range []bool{false, true} {
					cfg := base
					cfg.Workers = workers
					var order []trace.ChunkRef
					cfg.Observer = observerFunc(func(refs []trace.ChunkRef) error {
						order = append(order, refs...)
						return nil
					})
					sink := &windowSink{Store: NewStore(0)}
					client, err := NewSinkClient(sink, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var src io.Reader = bytes.NewReader(data)
					if slow {
						src = &slowReader{data: data, max: 5000}
					}
					recipe, err := client.Backup(src)
					if err != nil {
						t.Fatal(err)
					}
					if wantRecipe == nil {
						wantRecipe, wantStats, wantStore, wantOrder, wantSizes = recipe, sink.Stats(), sink.Store, order, sink.sizes
						if len(wantSizes) < 2 {
							t.Fatalf("%d upload windows: the stream must span several", len(wantSizes))
						}
						continue
					}
					run := fmt.Sprintf("workers=%d slow=%v", workers, slow)
					if !reflect.DeepEqual(recipe, wantRecipe) {
						t.Fatalf("%s: recipe differs from workers=1", run)
					}
					if sink.Stats() != wantStats {
						t.Fatalf("%s: stats differ from workers=1", run)
					}
					for i := range wantStore.shards {
						sameLayout(t, sink.shards[i].containers, wantStore.shards[i].containers)
					}
					if !reflect.DeepEqual(order, wantOrder) {
						t.Fatalf("%s: observed upload stream differs from workers=1", run)
					}
					if !reflect.DeepEqual(sink.sizes, wantSizes) {
						t.Fatalf("%s: upload windows %v, want %v", run, sink.sizes, wantSizes)
					}
				}
			}
		})
	}
}

// TestParallelBackupsSharedStore runs many pipelined clients against one
// sharded store concurrently (the actual production shape) and verifies
// every stream restores bit-for-bit. Run under -race.
func TestParallelBackupsSharedStore(t *testing.T) {
	store := NewStore(64 << 10)
	shared := randData(7, 512<<10)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := NewClient(store, Config{ScrambleSeed: int64(i + 1)})
			if err != nil {
				errs <- err
				return
			}
			data := append(append([]byte(nil), shared...), randData(int64(100+i), 128<<10)...)
			recipe, err := client.Backup(bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			var out bytes.Buffer
			if err := client.Restore(recipe, &out); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out.Bytes(), data) {
				errs <- fmt.Errorf("client %d: restore mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The shared prefix deduplicates across all clients.
	st := store.Stats()
	if st.PhysicalBytes > uint64(len(shared))+clients*(160<<10) {
		t.Fatalf("cross-client dedup ineffective: physical = %d", st.PhysicalBytes)
	}
}

func TestNewClientWorkerValidation(t *testing.T) {
	if _, err := NewClient(NewStore(0), Config{Workers: -1}); err == nil {
		t.Fatal("negative worker count accepted")
	}
}

// TestBackupWorkerErrorPropagates ensures a failing key deriver aborts the
// parallel stage and surfaces the error.
func TestBackupWorkerErrorPropagates(t *testing.T) {
	store := NewStore(0)
	boom := fmt.Errorf("deriver down")
	client, err := NewClient(store, Config{
		Encryption: EncServerAided,
		Deriver: mle.KeyDeriverFunc(func(fphash.Fingerprint) (mle.Key, error) {
			return mle.Key{}, boom
		}),
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Backup(bytes.NewReader(randData(1, 1<<20))); err == nil {
		t.Fatal("Backup succeeded with failing deriver")
	}
}

// TestGCShardedStore exercises retention against a multi-shard store:
// delete one of two overlapping backups, GC, and verify the survivor
// restores while the dead chunks are gone from every shard.
func TestGCShardedStore(t *testing.T) {
	store := NewStoreWithShards(32<<10, DefaultShards)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := randData(61, 1<<20)
	v2 := mutate(v1, 62)
	r1, err := client.Backup(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Backup(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("b1", r1); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("b2", r2); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	before := store.Stats().PhysicalBytes
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if got := store.Stats().PhysicalBytes; got != before-st.BytesReclaimed {
		t.Fatalf("physical accounting wrong: %d != %d - %d", got, before, st.BytesReclaimed)
	}
	var out bytes.Buffer
	if err := client.Restore(r2, &out); err != nil {
		t.Fatalf("survivor broken after sharded GC: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Fatal("survivor restore mismatch")
	}
	missing := make(map[fphash.Fingerprint]struct{})
	for _, e := range r1.Entries {
		if _, err := store.Get(e.Fingerprint); errors.Is(err, ErrNotFound) {
			missing[e.Fingerprint] = struct{}{}
		}
	}
	if len(missing) != st.ChunksReclaimed {
		// Every reclaimed chunk must actually be unreachable; chunks shared
		// with b2 must remain.
		t.Fatalf("missing %d unique chunks, reclaimed %d", len(missing), st.ChunksReclaimed)
	}
}
