package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"freqdedup/internal/faultio"
)

// corruptShardMiddle flips one bit in the middle of the first shard file,
// simulating post-fsync media corruption under a sealed container record.
func corruptShardMiddle(t *testing.T, m *faultio.MemFS, path string) {
	t.Helper()
	st, err := m.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	if err := m.CorruptAt(path, st.Size()/2, 0x04); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
}

// TestRepositoryRepairAfterCorruption is the self-healing acceptance walk:
// flip a bit under a sealed container, reopen with WithSalvage, Repair,
// and check that (a) the damaged snapshots and chunk counts are reported
// exactly, (b) degraded restores are byte-exact outside the reported
// ranges and zero inside, (c) undamaged snapshots restore untouched, and
// (d) the repository takes new backups again afterwards.
func TestRepositoryRepairAfterCorruption(t *testing.T) {
	m := faultio.NewMemFS()
	ctx := context.Background()
	var key Key
	copy(key[:], "repair test key")
	opts := []RepositoryOption{
		WithFileSystem(m), WithRepositoryKey(key),
		WithShards(2), WithContainerBytes(32 << 10),
	}

	v1 := repoData(41, 768<<10)
	v2 := repoMutate(v1, 42)
	v3 := repoData(43, 256<<10)

	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "mon", v1)
	mustBackup(t, repo, "tue", v2)
	mustBackup(t, repo, "wed", v3)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	corruptShardMiddle(t, m, "repo/shard-0000.fdc")

	repo, err = OpenRepository("repo", append(opts, WithSalvage(), WithDegradedRestore())...)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	defer repo.Close()

	rep, err := repo.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rep.Damaged() {
		t.Fatalf("repair of a corrupted shard reported no damage: %+v", rep)
	}
	if rep.ChunksLost == 0 && rep.SalvageContainersLost == 0 {
		t.Fatalf("no chunks or containers reported lost: %+v", rep)
	}
	if len(rep.Snapshots) == 0 {
		t.Fatalf("lost chunks but no snapshot reported damaged: %+v", rep)
	}
	damaged := make(map[string][]LostRange)
	for _, d := range rep.Snapshots {
		if d.RecipeUnreadable {
			t.Fatalf("snapshot %q recipe unreadable after payload corruption", d.Name)
		}
		if d.ChunksLost <= 0 || d.ChunksLost > d.TotalChunks {
			t.Fatalf("implausible damage for %q: %+v", d.Name, d)
		}
		damaged[d.Name] = nil
	}

	// Every snapshot restores: damaged ones with a DegradedError whose
	// ranges are exactly the zero-filled holes, undamaged ones exactly.
	originals := map[string][]byte{"mon": v1, "tue": v2, "wed": v3}
	for name, want := range originals {
		var out bytes.Buffer
		err := repo.Restore(ctx, name, &out)
		if _, isDamaged := damaged[name]; !isDamaged {
			if err != nil {
				t.Fatalf("restore undamaged %q: %v", name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("undamaged snapshot %q restored different bytes", name)
			}
			continue
		}
		var de *DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("restore damaged %q: err = %v, want *DegradedError", name, err)
		}
		if out.Len() != len(want) {
			t.Fatalf("degraded restore of %q: %d bytes, want %d", name, out.Len(), len(want))
		}
		expect := append([]byte(nil), want...)
		for _, r := range de.Ranges {
			if r.Offset+r.Length > uint64(len(expect)) {
				t.Fatalf("lost range %+v beyond snapshot %q", r, name)
			}
			for i := r.Offset; i < r.Offset+r.Length; i++ {
				expect[i] = 0
			}
		}
		if !bytes.Equal(out.Bytes(), expect) {
			t.Fatalf("degraded restore of %q differs outside the reported lost ranges", name)
		}
		if de.BytesLost() == 0 {
			t.Fatalf("damaged snapshot %q reported empty lost ranges", name)
		}
	}

	// The store is writable again: a fresh backup round-trips, and GC
	// sweeps without touching the surviving snapshots.
	post := repoData(44, 128<<10)
	mustBackup(t, repo, "post-repair", post)
	mustRestore(t, repo, "post-repair", post)
	if _, err := repo.GC(ctx); err != nil {
		t.Fatalf("gc after repair: %v", err)
	}
	mustRestore(t, repo, "post-repair", post)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// A plain (non-salvage) reopen of the repaired repository succeeds:
	// Repair left a structurally clean layout behind.
	repo, err = OpenRepository("repo", append(opts, WithDegradedRestore())...)
	if err != nil {
		t.Fatalf("clean reopen after repair: %v", err)
	}
	mustRestore(t, repo, "post-repair", post)
	// A second repair finds nothing new to quarantine.
	rep2, err := repo.Repair(ctx)
	if err != nil {
		t.Fatalf("second repair: %v", err)
	}
	if rep2.ContainersQuarantined != 0 || rep2.ChunksLost != 0 {
		t.Fatalf("second repair found fresh damage: %+v", rep2)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairFailsWhenQuarantineFails: the quarantine copy is the only
// surviving record of a damaged container once the shard is rewritten.
// If it cannot be written, Repair must fail with the write's error and
// leave the shard file exactly as it was.
func TestRepairFailsWhenQuarantineFails(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Seed: 74, Rules: []faultio.Rule{{
		Op: faultio.OpCreate, PathGlob: "shard-*-container-*.rec", Count: -1,
	}}})
	var key Key
	copy(key[:], "quarantine fault key")
	opts := []RepositoryOption{
		WithFileSystem(m), WithRepositoryKey(key),
		WithShards(2), WithContainerBytes(32 << 10),
	}
	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "mon", repoData(45, 512<<10))
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	const shard = "repo/shard-0000.fdc"
	corruptShardMiddle(t, m, shard)
	before := readMemFile(t, m, shard)

	repo, err = OpenRepository("repo", append(opts, WithSalvage())...)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	defer repo.Close()
	if _, err := repo.Repair(context.Background()); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("repair with an unwritable quarantine: err = %v, want the injected create failure", err)
	}
	if after := readMemFile(t, m, shard); !bytes.Equal(after, before) {
		t.Fatal("failed repair rewrote the shard holding the unquarantined record")
	}
}

// readMemFile returns a file's current contents.
func readMemFile(t *testing.T, m *faultio.MemFS, path string) []byte {
	t.Helper()
	f, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRepositoryCloseIdempotent: Close twice is a no-op the second time,
// and a repository is safely closable right after a failed Backup.
func TestRepositoryCloseIdempotent(t *testing.T) {
	m := faultio.NewMemFS()
	repo, err := CreateRepository("repo", WithFileSystem(m), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Backup(context.Background(), "", bytes.NewReader(nil)); err == nil {
		t.Fatal("backup with empty name should fail")
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("third close: %v", err)
	}
}
