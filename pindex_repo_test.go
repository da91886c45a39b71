package freqdedup

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/bloom"
	"freqdedup/internal/container"
)

// TestRepositoryPersistentIndex walks the repository lifecycle through
// the on-disk fingerprint index: create, back up, close (which persists
// the index under fpindex/), reopen, then restore, delete, and GC — the
// layout-change path that rewrites every run file.
func TestRepositoryPersistentIndex(t *testing.T) {
	dir := t.TempDir()
	var key Key
	copy(key[:], "persistent index key")

	v1 := repoData(41, 2<<20)
	v2 := repoMutate(v1, 42)

	repo, err := CreateRepository(dir,
		WithRepositoryKey(key),
		WithContainerBytes(256<<10))
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
		t.Fatalf("no %s directory after Close: %v", IndexDirName, err)
	}

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
		WithContainerBytes(128<<10))
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

// TestRepositoryPersistentIndexInMemory runs an in-memory repository
// whose small memtable spills run files onto its private filesystem:
// back up, restore byte-identically, delete, GC, and Verify.
func TestRepositoryPersistentIndexInMemory(t *testing.T) {
	ctx := context.Background()
	var key Key
	copy(key[:], "memory index key")
	repo, err := CreateRepository("",
		WithRepositoryKey(key),
		WithContainerBytes(256<<10),
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

// TestRepositoryUpgradesOldIndexOnOpen opens the two index layouts an
// older repository can carry: no fpindex/ directory at all (a repository
// that ran the in-memory map index) and version-1 shard manifests that
// still hold an aggregate Bloom filter. Each must open, restore every
// snapshot byte-identically, Verify, GC and Close, and leave an index
// whose next open rescans no container tail: every shard's manifest is
// version 2 with its watermark at the shard's sealed-container count.
func TestRepositoryUpgradesOldIndexOnOpen(t *testing.T) {
	ctx := context.Background()
	var key Key
	copy(key[:], "upgrade key")
	opts := []RepositoryOption{WithRepositoryKey(key), WithShards(4), WithContainerBytes(64 << 10)}
	base := t.TempDir()
	repo, err := CreateRepository(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	v1 := repoData(61, 1<<20)
	gens := map[string][]byte{"mon": v1, "tue": repoMutate(v1, 62), "wed": repoData(63, 512<<10)}
	for _, name := range []string{"mon", "tue", "wed"} {
		mustBackup(t, repo, name, gens[name])
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		age  func(t *testing.T, indexDir string)
	}{
		{"no-index-dir", func(t *testing.T, indexDir string) {
			if err := os.RemoveAll(indexDir); err != nil {
				t.Fatal(err)
			}
		}},
		{"v1-manifests", func(t *testing.T, indexDir string) {
			names, err := filepath.Glob(filepath.Join(indexDir, "shard-*.mf"))
			if err != nil || len(names) != 4 {
				t.Fatalf("shard manifests = %v, %v; want 4", names, err)
			}
			for _, name := range names {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, manifestV1(data[:len(data)-4]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			tc.age(t, filepath.Join(dir, IndexDirName))

			repo, err := OpenRepository(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range gens {
				mustRestore(t, repo, name, data)
			}
			if err := repo.Verify(ctx); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if _, err := repo.GC(ctx); err != nil {
				t.Fatalf("GC: %v", err)
			}
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}

			b, err := container.OpenFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			for shard := 0; shard < b.Shards(); shard++ {
				sealed, _, err := b.SealedStats(shard)
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(filepath.Join(dir, IndexDirName, fmt.Sprintf("shard-%04d.mf", shard)))
				if err != nil {
					t.Fatalf("shard %d: no index manifest after Close: %v", shard, err)
				}
				if len(data) < 32 {
					t.Fatalf("shard %d: manifest truncated (%d bytes)", shard, len(data))
				}
				version := binary.LittleEndian.Uint32(data[4:])
				watermark := binary.LittleEndian.Uint64(data[16:])
				if version != 2 || watermark != uint64(sealed) {
					t.Fatalf("shard %d: manifest version %d watermark %d, want version 2 watermark %d (no tail rescan)",
						shard, version, watermark, sealed)
				}
			}
		})
	}
}

// manifestV1 re-encodes a shard manifest body (without its CRC) in the
// version-1 layout: the same header and run list, version 1, followed by
// the aggregate Bloom filter version 1 carried, sized for 1<<22 chunks
// across the 4 shards.
func manifestV1(body []byte) []byte {
	out := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(out[4:], 1)
	out = bloom.NewWithEstimates(1<<22/4, 0.01).AppendBinary(out)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// copyDir copies the regular files under src into dst, keeping layout.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
