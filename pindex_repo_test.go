package freqdedup

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestRepositoryPersistentIndex walks the repository lifecycle with the
// persistent fingerprint index: create with WithIndex(IndexPersistent),
// back up, close, reopen WITHOUT the option (the fpindex directory on
// disk must re-select persistent mode), then restore, delete, and GC —
// the layout-change path that rewrites every run file.
func TestRepositoryPersistentIndex(t *testing.T) {
	dir := t.TempDir()
	var key Key
	copy(key[:], "persistent index key")

	v1 := repoData(41, 2<<20)
	v2 := repoMutate(v1, 42)

	repo, err := CreateRepository(dir,
		WithRepositoryKey(key),
		WithContainerBytes(256<<10),
		WithIndex(IndexPersistent))
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustBackup(t, repo, "mon", v1)
	mustBackup(t, repo, "tue", v2)
	if s1.Chunks == 0 {
		t.Fatalf("snapshot metadata wrong: %+v", s1)
	}
	// The second backup shares most chunks with the first; that dedup
	// ratio is the proof the index answered lookups, not just inserts.
	st := repo.Stats()
	if st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("no dedup through persistent index: physical %d >= logical %d",
			st.PhysicalBytes, st.LogicalBytes)
	}
	mustRestore(t, repo, "mon", v1)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, IndexDirName)); err != nil {
		t.Fatalf("no %s directory after persistent-index Close: %v", IndexDirName, err)
	}

	// Reopen with a plain OpenRepository: the on-disk index directory is
	// sticky, so persistent mode resumes without the option.
	repo, err = OpenRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, repo, "mon", v1)
	mustRestore(t, repo, "tue", v2)
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
	// A third generation must still dedup against the reopened index.
	before := repo.Stats().PhysicalBytes
	mustBackup(t, repo, "wed", v1)
	if after := repo.Stats().PhysicalBytes; after != before {
		t.Fatalf("re-backup of identical data grew the store: %d -> %d", before, after)
	}

	// Delete + GC exercises the index layout-change protocol (containers
	// renumber, every surviving location is rewritten).
	if err := repo.Delete(context.Background(), "tue"); err != nil {
		t.Fatal(err)
	}
	gc, err := repo.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing after deleting a snapshot with unique chunks")
	}
	mustRestore(t, repo, "mon", v1)
	mustRestore(t, repo, "wed", v1)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// And once more after GC: the rebuilt index must survive a reopen.
	repo, err = OpenRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	mustRestore(t, repo, "mon", v1)
	mustRestore(t, repo, "wed", v1)
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after GC and reopen: %v", err)
	}
}

// TestRepositoryPersistentIndexCrashReopen kills the repository without
// Close — the index never flushes — and reopens: every chunk must come
// back through the container tail scan, and the torn catalog tail must
// not confuse the lazy retention rebuild (GC after reopen reclaims
// nothing while every snapshot is live).
func TestRepositoryPersistentIndexCrashReopen(t *testing.T) {
	dir := t.TempDir()
	var key Key
	copy(key[:], "persistent crash key")

	v1 := repoData(51, 1<<20)
	v2 := repoMutate(v1, 52)

	repo, err := CreateRepository(dir,
		WithRepositoryKey(key),
		WithContainerBytes(128<<10),
		WithIndex(IndexPersistent))
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "a", v1)
	mustBackup(t, repo, "b", v2)
	// Crash: drop the repository on the floor. Backup's group commit has
	// already made both snapshots durable; the index flush never runs.
	repo = nil

	repo, err = OpenRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if snaps := repo.Snapshots(); len(snaps) != 2 {
		t.Fatalf("Snapshots() after crash-reopen = %+v", snaps)
	}
	gc, err := repo.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed != 0 {
		t.Fatalf("GC after crash-reopen reclaimed %d chunks with every snapshot live", gc.ChunksReclaimed)
	}
	mustRestore(t, repo, "a", v1)
	mustRestore(t, repo, "b", v2)
}

// TestRepositoryPersistentIndexInMemory runs the persistent index in an
// in-memory repository, whose run files live on its private filesystem:
// back up, restore byte-identically, delete, GC, and Verify.
func TestRepositoryPersistentIndexInMemory(t *testing.T) {
	ctx := context.Background()
	var key Key
	copy(key[:], "memory index key")
	repo, err := CreateRepository("",
		WithRepositoryKey(key),
		WithContainerBytes(256<<10),
		WithIndex(IndexPersistent),
		WithIndexTuning(IndexTuning{MemtableEntries: 64, SyncCompaction: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	v1 := repoData(43, 2<<20)
	v2 := repoMutate(v1, 44)
	mustBackup(t, repo, "mon", v1)
	mustBackup(t, repo, "tue", v2)
	if st := repo.Stats(); st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("no dedup through persistent index: physical %d >= logical %d",
			st.PhysicalBytes, st.LogicalBytes)
	}
	mustRestore(t, repo, "mon", v1)
	mustRestore(t, repo, "tue", v2)
	if err := repo.Delete(ctx, "mon"); err != nil {
		t.Fatal(err)
	}
	gc, err := repo.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing after deleting a snapshot with unique chunks")
	}
	mustRestore(t, repo, "tue", v2)
	if err := repo.Verify(ctx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
