package dedup

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"freqdedup/internal/chunker"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

func randData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// mutate returns a copy of data with a contiguous region rewritten,
// mimicking a backup version change.
func mutate(data []byte, seed int64) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	rng := rand.New(rand.NewSource(seed))
	start := len(out) / 3
	for i := 0; i < len(out)/50; i++ {
		out[start+i] = byte(rng.Intn(256))
	}
	return out
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(0)
	data := []byte("chunk data")
	fp := fphash.FromBytes(data)
	if dup, err := s.Put(fp, data); dup || err != nil {
		t.Fatalf("first Put = %v, %v", dup, err)
	}
	if dup, err := s.Put(fp, data); !dup || err != nil {
		t.Fatalf("second Put = %v, %v, want deduplicated", dup, err)
	}
	got, err := s.Get(fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get returned wrong data (%v)", err)
	}
	st := s.Stats()
	if st.LogicalChunks != 2 || st.UniqueChunks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LogicalBytes != 2*uint64(len(data)) || st.PhysicalBytes != uint64(len(data)) {
		t.Fatalf("byte stats = %+v", st)
	}
}

func TestStorePutCopiesData(t *testing.T) {
	s := NewStore(0)
	data := []byte("mutable buffer")
	fp := fphash.FromBytes(data)
	if _, err := s.Put(fp, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := s.Get(fp)
	if got[0] == 'X' {
		t.Fatal("store aliased caller's buffer")
	}
}

func backupRestore(t *testing.T, cfg Config, data []byte) (*Store, *mle.Recipe) {
	t.Helper()
	store := NewStore(0)
	client, err := NewClient(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored data differs from original")
	}
	return store, recipe
}

func TestConvergentBackupRestore(t *testing.T) {
	data := randData(1, 1<<20)
	store, recipe := backupRestore(t, Config{}, data)
	if recipe.TotalSize() != uint64(len(data)) {
		t.Fatalf("recipe size %d, want %d", recipe.TotalSize(), len(data))
	}
	if store.UniqueChunks() == 0 {
		t.Fatal("nothing stored")
	}
}

func TestServerAidedBackupRestore(t *testing.T) {
	cfg := Config{
		Encryption: EncServerAided,
		Deriver:    mle.NewLocalDeriver([]byte("system secret")),
	}
	backupRestore(t, cfg, randData(2, 1<<20))
}

func TestMinHashBackupRestore(t *testing.T) {
	cfg := Config{
		Encryption: EncMinHash,
		Deriver:    mle.NewLocalDeriver([]byte("system secret")),
	}
	backupRestore(t, cfg, randData(3, 1<<20))
}

func TestScrambledBackupRestore(t *testing.T) {
	cfg := Config{
		Encryption:   EncMinHash,
		Deriver:      mle.NewLocalDeriver([]byte("system secret")),
		Scramble:     true,
		ScrambleSeed: 7,
	}
	backupRestore(t, cfg, randData(4, 1<<20))
}

func TestCrossVersionDedup(t *testing.T) {
	// Two versions of the same data deduplicate heavily under convergent
	// encryption.
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := randData(5, 1<<20)
	v2 := mutate(v1, 6)
	if _, err := client.Backup(bytes.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	before := store.Stats().PhysicalBytes
	if _, err := client.Backup(bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	after := store.Stats().PhysicalBytes
	added := after - before
	if added > uint64(len(v2))/4 {
		t.Fatalf("second version added %d bytes physical, expected heavy dedup", added)
	}
}

func TestMinHashDedupSlightlyWorse(t *testing.T) {
	// MinHash encryption must preserve most but not necessarily all of the
	// dedup that convergent encryption achieves (Section 6.1).
	run := func(enc Encryption) uint64 {
		store := NewStore(0)
		cfg := Config{Encryption: enc}
		if enc != EncConvergent {
			cfg.Deriver = mle.NewLocalDeriver([]byte("s"))
		}
		client, err := NewClient(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v1 := randData(7, 2<<20)
		for _, v := range [][]byte{v1, mutate(v1, 8), mutate(mutate(v1, 8), 9)} {
			if _, err := client.Backup(bytes.NewReader(v)); err != nil {
				t.Fatal(err)
			}
		}
		return store.Stats().PhysicalBytes
	}
	conv := run(EncConvergent)
	minh := run(EncMinHash)
	if minh < conv {
		t.Fatalf("MinHash stored less than exact dedup: %d < %d", minh, conv)
	}
	if float64(minh) > float64(conv)*1.25 {
		t.Fatalf("MinHash overhead too large: %d vs %d physical bytes", minh, conv)
	}
}

func TestTwoClientsDeduplicateSharedData(t *testing.T) {
	// Cross-user dedup: the whole point of MLE (Figure 2's multi-client
	// architecture).
	store := NewStore(0)
	a, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(10, 1<<20)
	if _, err := a.Backup(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	before := store.Stats().PhysicalBytes
	recipeB, err := b.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().PhysicalBytes != before {
		t.Fatal("identical data from second client was not fully deduplicated")
	}
	var out bytes.Buffer
	if err := b.Restore(recipeB, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("second client restore failed")
	}
}

func TestRecipeSealedRoundTrip(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(11, 256<<10)
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var userKey mle.Key
	userKey[3] = 9
	sealed, err := recipe.Seal(userKey)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := mle.OpenRecipe(sealed, userKey)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := client.Restore(opened, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore from sealed recipe failed")
	}
}

func TestNewClientValidation(t *testing.T) {
	store := NewStore(0)
	if _, err := NewClient(nil, Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewClient(store, Config{Encryption: EncServerAided}); err == nil {
		t.Fatal("server-aided without deriver accepted")
	}
	if _, err := NewClient(store, Config{Encryption: EncMinHash}); err == nil {
		t.Fatal("minhash without deriver accepted")
	}
	if _, err := NewClient(store, Config{Encryption: Encryption(99)}); err == nil {
		t.Fatal("unknown encryption accepted")
	}
	bad := chunker.DefaultParams()
	bad.Avg = 12345 // not a power of two
	if _, err := NewClient(store, Config{Chunking: bad}); err == nil {
		t.Fatal("invalid chunking accepted")
	}
}

// recordingSink keeps every upload window it is handed.
type recordingSink struct{ windows [][]PutChunk }

func (s *recordingSink) PutBatchOwned(chunks []PutChunk) ([]bool, error) {
	s.windows = append(s.windows, append([]PutChunk(nil), chunks...))
	return nil, nil
}

// TestSinkClient: a NewSinkClient pipeline produces the recipe a store
// client does and hands its sink the ciphertexts in full windows of
// uploadWindowChunks (the network client's window boundaries depend on
// it), in recipe order; with no store it has nothing to restore from.
func TestSinkClient(t *testing.T) {
	if _, err := NewSinkClient(nil, Config{}); err == nil {
		t.Fatal("nil sink accepted")
	}
	data := randData(61, 12<<20)
	_, want := backupRestore(t, Config{Workers: 2}, data)
	sink := &recordingSink{}
	client, err := NewSinkClient(sink, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recipe.Entries) != len(want.Entries) || len(recipe.Entries) <= uploadWindowChunks {
		t.Fatalf("%d recipe entries, store client %d (need more than one window)", len(recipe.Entries), len(want.Entries))
	}
	n := 0
	for wi, w := range sink.windows {
		if len(w) > uploadWindowChunks || (wi < len(sink.windows)-1 && len(w) != uploadWindowChunks) {
			t.Fatalf("window %d of %d has %d chunks", wi, len(sink.windows), len(w))
		}
		for _, ch := range w {
			e := recipe.Entries[n]
			if e != want.Entries[n] || ch.FP != e.Fingerprint || fphash.FromBytes(ch.Data) != ch.FP || len(ch.Data) != int(e.Size) {
				t.Fatalf("chunk %d: uploaded %v (%d B), recipe %+v, store client %+v", n, ch.FP, len(ch.Data), e, want.Entries[n])
			}
			n++
		}
	}
	if n != len(recipe.Entries) {
		t.Fatalf("sink got %d chunks, recipe has %d", n, len(recipe.Entries))
	}
	if err := client.Restore(recipe, io.Discard); err == nil {
		t.Fatal("restore without a store succeeded")
	}
}

func TestEmptyBackup(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(recipe.Entries) != 0 {
		t.Fatal("empty input produced recipe entries")
	}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("empty restore produced data")
	}
}

func TestRestoreMissingChunk(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	recipe := &mle.Recipe{Entries: []mle.RecipeEntry{{
		Fingerprint: fphash.FromUint64(404),
		Size:        10,
	}}}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err == nil {
		t.Fatal("restore with missing chunk should fail")
	}
}

func TestConcurrentClientsSharedStore(t *testing.T) {
	store := NewStore(0)
	shared := randData(50, 512<<10)
	const clients = 8
	errs := make(chan error, clients)
	done := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			client, err := NewClient(store, Config{ScrambleSeed: int64(i + 1)})
			if err != nil {
				errs <- err
				return
			}
			// Everyone uploads the shared data plus a private tail.
			data := append(append([]byte(nil), shared...), randData(int64(60+i), 64<<10)...)
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
				errs <- fmt.Errorf("client %d restore mismatch", i)
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The shared prefix must have deduplicated across clients: physical
	// bytes should be far below clients * len(data).
	st := store.Stats()
	if st.PhysicalBytes > uint64(len(shared))+uint64(clients)*(80<<10)+(64<<10) {
		t.Fatalf("cross-client dedup ineffective: physical = %d", st.PhysicalBytes)
	}
}
