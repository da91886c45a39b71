package dedup

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// persistentOptions returns StoreOptions that keep the index on disk in
// dir and exercise the fpindex paths hard: a tiny memtable so ordinary
// tests cross flush and compaction boundaries.
func persistentOptions(dir string) StoreOptions {
	return StoreOptions{
		IndexDir:        filepath.Join(dir, "fpindex"),
		MemtableEntries: 8,
		CacheBytes:      1 << 20,
	}
}

// createPersistentStore creates a fresh file-backed store in dir running
// the persistent fingerprint index.
func createPersistentStore(t *testing.T, dir string, shards, containerBytes int) *Store {
	t.Helper()
	b, err := container.CreateFileBackend(filepath.Join(dir, "store"), shards, containerBytes)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithOptions(b, persistentOptions(dir))
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	return s
}

// openPersistentStore reopens the store createPersistentStore made.
func openPersistentStore(t *testing.T, dir string) *Store {
	t.Helper()
	b, err := container.OpenFileBackend(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithOptions(b, persistentOptions(dir))
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	return s
}

// testChunk mints deterministic chunk i: content plus its fingerprint.
func testChunk(i int) (fphash.Fingerprint, []byte) {
	data := make([]byte, 64+i%37)
	binary.LittleEndian.PutUint64(data, uint64(i)*2654435761+17)
	return fphash.FromBytes(data), data
}

// TestPersistentIndexParity stores the same stream through an in-memory
// store and a file-backed store with an on-disk index and an 8-entry
// memtable, and demands identical dedup decisions, lookup answers, and
// core statistics.
func TestPersistentIndexParity(t *testing.T) {
	const n = 300
	mapStore := NewStoreWithShards(4<<10, 4)
	defer mapStore.Close()
	perStore := createPersistentStore(t, t.TempDir(), 4, 4<<10)
	defer perStore.Close()

	for i := 0; i < n; i++ {
		fp, data := testChunk(i % (n / 3)) // every chunk stored three times
		d1, err1 := mapStore.Put(fp, data)
		d2, err2 := perStore.Put(fp, data)
		if err1 != nil || err2 != nil {
			t.Fatalf("put %d: map err %v, persistent err %v", i, err1, err2)
		}
		if d1 != d2 {
			t.Fatalf("put %d: duplicate verdicts disagree: map %v, persistent %v", i, d1, d2)
		}
	}
	for i := 0; i < n/3; i++ {
		fp, data := testChunk(i)
		if !perStore.Contains(fp) {
			t.Fatalf("persistent store missing chunk %d", i)
		}
		got, err := perStore.Get(fp)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %d: wrong bytes", i)
		}
	}
	if fp, _ := testChunk(1 << 20); perStore.Contains(fp) {
		t.Fatal("persistent store claims to hold an absent chunk")
	}
	ms, ps := mapStore.Stats(), perStore.Stats()
	if ms.LogicalBytes != ps.LogicalBytes || ms.PhysicalBytes != ps.PhysicalBytes ||
		ms.LogicalChunks != ps.LogicalChunks || ms.UniqueChunks != ps.UniqueChunks {
		t.Fatalf("stats disagree: map %+v, persistent %+v", ms, ps)
	}
	if ps.IndexMemtableHits == 0 {
		t.Fatalf("no memtable hits recorded: %+v", ps)
	}
}

// TestPersistentIndexReopen proves the persistence round trip: chunks
// stored before a clean Close are all found after reopening, and a third
// generation stored after the reopen dedups against the first.
func TestPersistentIndexReopen(t *testing.T) {
	dir := t.TempDir()
	const n = 200
	s := createPersistentStore(t, dir, 4, 4<<10)
	for i := 0; i < n; i++ {
		fp, data := testChunk(i)
		if _, err := s.Put(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openPersistentStore(t, dir)
	defer s.Close()
	if got := s.UniqueChunks(); got != n {
		t.Fatalf("reopened store has %d unique chunks, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		fp, data := testChunk(i)
		got, err := s.Get(fp)
		if err != nil {
			t.Fatalf("get %d after reopen: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %d after reopen: wrong bytes", i)
		}
		if dup, err := s.Put(fp, data); err != nil || !dup {
			t.Fatalf("re-put %d after reopen: dup=%v err=%v", i, dup, err)
		}
	}
}

// TestPersistentIndexCrashTail simulates dying without Close: the index
// never flushed, so the reopen must recover every sealed chunk from the
// container tail scan (the containers are the index's write-ahead log).
func TestPersistentIndexCrashTail(t *testing.T) {
	dir := t.TempDir()
	const n = 150
	s := createPersistentStore(t, dir, 2, 2<<10)
	for i := 0; i < n; i++ {
		fp, data := testChunk(i)
		if _, err := s.Put(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	// Seal open containers (durability point) but skip Close: the index
	// flush never happens, like a crash right after a Sync.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.backend.Close()

	s = openPersistentStore(t, dir)
	defer s.Close()
	for i := 0; i < n; i++ {
		fp, data := testChunk(i)
		got, err := s.Get(fp)
		if err != nil {
			t.Fatalf("get %d after crash-reopen: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %d after crash-reopen: wrong bytes", i)
		}
	}
}

// TestPersistentIndexGC runs retention GC on a persistent-index store and
// verifies survivors remain readable — through the rebuilt index both
// before and after a reopen (locations change when containers compact).
func TestPersistentIndexGC(t *testing.T) {
	dir := t.TempDir()
	s := createPersistentStore(t, dir, 2, 2<<10)
	const n = 120
	keep := &recipeStub{}
	drop := &recipeStub{}
	for i := 0; i < n; i++ {
		fp, data := testChunk(i)
		if _, err := s.Put(fp, data); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			keep.add(fp, uint32(len(data)))
		} else {
			drop.add(fp, uint32(len(data)))
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterBackup("keep", keep.recipe()); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterBackup("drop", drop.recipe()); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBackup("drop"); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	check := func(s *Store, phase string) {
		for i := 0; i < n; i++ {
			fp, data := testChunk(i)
			got, err := s.Get(fp)
			if i%2 == 0 {
				if err != nil {
					t.Fatalf("%s: survivor %d: %v", phase, i, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: survivor %d: wrong bytes", phase, i)
				}
			} else if err == nil {
				t.Fatalf("%s: reclaimed chunk %d still readable", phase, i)
			}
		}
	}
	check(s, "after GC")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openPersistentStore(t, dir)
	defer s.Close()
	check(s, "after GC and reopen")
}

// TestPersistentIndexForeignIndexRebuilds opens a container store with an
// index directory left over from a different container history: the
// index's watermark exceeds the store's sealed count, so trusting its run
// files would serve garbage locations. The open must detect the mismatch
// and rebuild the index from the containers it actually has.
func TestPersistentIndexForeignIndexRebuilds(t *testing.T) {
	dirA := t.TempDir()
	sa := createPersistentStore(t, dirA, 2, 2<<10)
	for i := 0; i < 100; i++ {
		fp, data := testChunk(i)
		if _, err := sa.Put(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh, empty container store paired with store A's index.
	dirB := t.TempDir()
	b, err := container.CreateFileBackend(filepath.Join(dirB, "store"), 2, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	opts := persistentOptions(dirA) // points at A's fpindex directory
	sb, err := NewStoreWithOptions(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if got := sb.UniqueChunks(); got != 0 {
		t.Fatalf("foreign index not rebuilt: store reports %d chunks, want 0", got)
	}
	if fp, _ := testChunk(3); sb.Contains(fp) {
		t.Fatal("foreign index answered a lookup for a chunk the store does not hold")
	}
}

// recipeStub builds minimal recipes for retention tests.
type recipeStub struct {
	entries []mle.RecipeEntry
}

func (r *recipeStub) add(fp fphash.Fingerprint, size uint32) {
	r.entries = append(r.entries, mle.RecipeEntry{Fingerprint: fp, Size: size})
}

func (r *recipeStub) recipe() *mle.Recipe { return &mle.Recipe{Entries: r.entries} }
