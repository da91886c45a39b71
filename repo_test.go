package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"freqdedup/internal/dedup"
)

func repoData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// repoMutate returns a copy of data with a clustered edit, so most chunks
// deduplicate against the original.
func repoMutate(data []byte, seed int64) []byte {
	out := append([]byte(nil), data...)
	copy(out[len(out)/2:], repoData(seed, 32<<10))
	return out
}

func mustBackup(t *testing.T, r *Repository, name string, data []byte) Snapshot {
	t.Helper()
	snap, err := r.Backup(context.Background(), name, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("backup %q: %v", name, err)
	}
	return snap
}

func mustRestore(t *testing.T, r *Repository, name string, want []byte) {
	t.Helper()
	var out bytes.Buffer
	if err := r.Restore(context.Background(), name, &out); err != nil {
		t.Fatalf("restore %q: %v", name, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("restore %q: bytes differ", name)
	}
}

// TestRepositoryLifecycle is the acceptance walk: create, back up, close,
// reopen, list, verify, restore, delete, GC — with the catalog carrying
// the snapshot list and refcounts across the reopen.
func TestRepositoryLifecycle(t *testing.T) {
	dir := t.TempDir()
	var key Key
	copy(key[:], "lifecycle test key")

	v1 := repoData(1, 2<<20)
	v2 := repoMutate(v1, 2)

	repo, err := CreateRepository(dir, WithRepositoryKey(key), WithContainerBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustBackup(t, repo, "mon", v1)
	s2 := mustBackup(t, repo, "tue", v2)
	if s1.LogicalBytes != uint64(len(v1)) || s1.Chunks == 0 {
		t.Fatalf("snapshot metadata wrong: %+v", s1)
	}
	if s2.LogicalBytes != uint64(len(v2)) {
		t.Fatalf("snapshot metadata wrong: %+v", s2)
	}
	if _, err := repo.Backup(context.Background(), "mon", bytes.NewReader(v1)); !errors.Is(err, ErrSnapshotExists) {
		t.Fatalf("duplicate name: err = %v, want ErrSnapshotExists", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the full snapshot list and refcounts come back.
	repo, err = OpenRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	snaps := repo.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "mon" || snaps[1].Name != "tue" {
		t.Fatalf("Snapshots() after reopen = %+v", snaps)
	}
	if snaps[0].LogicalBytes != uint64(len(v1)) || snaps[0].Chunks != s1.Chunks {
		t.Fatalf("snapshot metadata lost across reopen: %+v vs %+v", snaps[0], s1)
	}
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}

	// The regression this API exists for: GC right after reopen must
	// reclaim nothing while every snapshot is live. (The raw Store's
	// "unregistered = unreferenced" rule would have reclaimed everything.)
	gc, err := repo.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed != 0 {
		t.Fatalf("GC after reopen reclaimed %d chunks with every snapshot live", gc.ChunksReclaimed)
	}
	mustRestore(t, repo, "mon", v1)
	mustRestore(t, repo, "tue", v2)

	// Delete one snapshot; GC reclaims its unique chunks and only those.
	if err := repo.Delete(context.Background(), "tue"); err != nil {
		t.Fatal(err)
	}
	if err := repo.Delete(context.Background(), "tue"); !errors.Is(err, ErrSnapshotNotFound) {
		t.Fatalf("double delete: err = %v, want ErrSnapshotNotFound", err)
	}
	gc, err = repo.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing after deleting a snapshot with unique chunks")
	}
	mustRestore(t, repo, "mon", v1)
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after GC: %v", err)
	}
}

// TestRepositoryCrashReopen is the catalog-durability acceptance test:
// create → backup×3 → delete one → crash (no Close; torn catalog tail) →
// reopen → snapshot list and refcounts intact → GC reclaims only the
// deleted snapshot's chunks → survivors restore bit-for-bit.
func TestRepositoryCrashReopen(t *testing.T) {
	dir := t.TempDir()
	base := repoData(10, 1<<20)
	versions := map[string][]byte{
		"day-1": base,
		"day-2": repoMutate(base, 11),
		"day-3": repoMutate(base, 12),
	}

	repo, err := CreateRepository(dir, WithContainerBytes(128<<10))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"day-1", "day-2", "day-3"} {
		mustBackup(t, repo, name, versions[name])
	}
	if err := repo.Delete(context.Background(), "day-2"); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the repository without Close, then tear the catalog's
	// tail the way a mid-append power cut would — garbage bytes past the
	// last acknowledged record.
	catPath := filepath.Join(dir, dedup.CatalogName)
	f, err := os.OpenFile(catPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x31, 0x52, 0x44, 0x46, 0x01, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	snaps := reopened.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "day-1" || snaps[1].Name != "day-3" {
		t.Fatalf("Snapshots() after crash reopen = %+v", snaps)
	}

	// Refcounts must be intact: GC reclaims day-2's unique chunks and
	// nothing referenced by the survivors.
	before := reopened.Stats().PhysicalBytes
	gc, err := reopened.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing; day-2's unique chunks leaked")
	}
	if after := reopened.Stats().PhysicalBytes; after != before-gc.BytesReclaimed {
		t.Fatalf("physical accounting wrong: %d != %d - %d", after, before, gc.BytesReclaimed)
	}
	mustRestore(t, reopened, "day-1", versions["day-1"])
	mustRestore(t, reopened, "day-3", versions["day-3"])
	if err := reopened.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after crash reopen + GC: %v", err)
	}
}

// TestRepositoryWrongKey: opening with the wrong repository key must fail
// loudly (the sealed recipes are authenticated), not yield garbage.
func TestRepositoryWrongKey(t *testing.T) {
	dir := t.TempDir()
	var key Key
	copy(key[:], "the right key")
	repo, err := CreateRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "snap", repoData(3, 256<<10))
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	var wrong Key
	copy(wrong[:], "an impostor key")
	if _, err := OpenRepository(dir, WithRepositoryKey(wrong)); err == nil {
		t.Fatal("OpenRepository with the wrong key succeeded")
	}
}

// TestRepositoryInMemory: an empty path gives the same API, memory-backed.
func TestRepositoryInMemory(t *testing.T) {
	repo, err := CreateRepository("", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	data := repoData(4, 512<<10)
	mustBackup(t, repo, "only", data)
	mustRestore(t, repo, "only", data)
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := repo.Delete(context.Background(), "only"); err != nil {
		t.Fatal(err)
	}
	gc, err := repo.GC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("in-memory GC reclaimed nothing after deleting the only snapshot")
	}
}

// TestRepositorySnapshotsSorted: listings are sorted by name regardless of
// backup order, with per-snapshot sizes and chunk counts populated.
func TestRepositorySnapshotsSorted(t *testing.T) {
	repo, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, name := range []string{"zeta", "alpha", "mike"} {
		mustBackup(t, repo, name, repoData(int64(len(name)), 128<<10))
	}
	snaps := repo.Snapshots()
	if len(snaps) != 3 || snaps[0].Name != "alpha" || snaps[1].Name != "mike" || snaps[2].Name != "zeta" {
		t.Fatalf("Snapshots() not sorted: %+v", snaps)
	}
	for _, s := range snaps {
		if s.LogicalBytes != 128<<10 || s.Chunks == 0 || s.CreatedAt.IsZero() {
			t.Fatalf("snapshot %q metadata incomplete: %+v", s.Name, s)
		}
	}
}

// cancellingReader delivers data in small reads and cancels the context
// partway through the stream, so the backup pipeline is genuinely
// mid-flight when cancellation lands.
type cancellingReader struct {
	data     []byte
	off      int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	if c.off >= c.cancelAt && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	if c.off >= len(c.data) {
		return 0, nil // keep the producer running until cancellation lands
	}
	n := 64 << 10
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data)-c.off {
		n = len(c.data) - c.off
	}
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

// TestRepositoryBackupCancel: cancelling mid-Backup surfaces ctx.Err()
// through the front door and records no snapshot.
func TestRepositoryBackupCancel(t *testing.T) {
	repo, err := CreateRepository(t.TempDir(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingReader{data: repoData(7, 8<<20), cancelAt: 4 << 20, cancel: cancel}
	if _, err := repo.Backup(ctx, "doomed", src); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Backup err = %v, want context.Canceled", err)
	}
	if snaps := repo.Snapshots(); len(snaps) != 0 {
		t.Fatalf("cancelled backup recorded a snapshot: %+v", snaps)
	}
	// The repository remains fully usable; abandoned chunks fall to GC.
	data := repoData(8, 1<<20)
	mustBackup(t, repo, "survivor", data)
	if _, err := repo.GC(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustRestore(t, repo, "survivor", data)
}

// cancelAfterWriter cancels the context once n bytes have been written.
type cancelAfterWriter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n <= 0 && w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	return len(p), nil
}

// TestRepositoryRestoreCancel: cancelling mid-Restore surfaces ctx.Err()
// through the front door.
func TestRepositoryRestoreCancel(t *testing.T) {
	repo, err := CreateRepository(t.TempDir(), WithWorkers(4), WithContainerBytes(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	data := repoData(9, 4<<20)
	mustBackup(t, repo, "snap", data)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = repo.Restore(ctx, "snap", &cancelAfterWriter{n: 1 << 20, cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Restore err = %v, want context.Canceled", err)
	}
	// And an uncancelled restore still succeeds afterwards.
	mustRestore(t, repo, "snap", data)
}

// TestRepositoryGCDuringBackup: a GC racing an in-flight Backup must not
// reclaim the backup's not-yet-registered chunks — GC excludes in-flight
// backups, so the acknowledged snapshot always restores. Run under -race.
func TestRepositoryGCDuringBackup(t *testing.T) {
	repo, err := CreateRepository("", WithWorkers(2), WithContainerBytes(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	data := repoData(31, 4<<20)

	gcDone := make(chan error, 8)
	backupDone := make(chan error, 1)
	go func() {
		_, err := repo.Backup(context.Background(), "racer", bytes.NewReader(data))
		backupDone <- err
	}()
	for i := 0; i < 8; i++ {
		_, err := repo.GC(context.Background())
		gcDone <- err
	}
	if err := <-backupDone; err != nil {
		t.Fatalf("backup racing GC failed: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := <-gcDone; err != nil {
			t.Fatalf("GC racing backup failed: %v", err)
		}
	}
	mustRestore(t, repo, "racer", data)
	if err := repo.Verify(context.Background()); err != nil {
		t.Fatalf("Verify after racing GC: %v", err)
	}
}

// TestRepositoryCreateFailureLeavesNoDebris: a create that fails late
// (shard count validated against the backend ceiling) must not brick the
// directory for a retry.
func TestRepositoryCreateFailureLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateRepository(dir, WithShards(300)); err == nil {
		t.Fatal("CreateRepository with 300 shards succeeded")
	}
	// The directory is still virgin: a corrected retry works.
	repo, err := CreateRepository(dir, WithShards(4))
	if err != nil {
		t.Fatalf("retry after failed create: %v", err)
	}
	defer repo.Close()
	data := repoData(6, 256<<10)
	mustBackup(t, repo, "snap", data)
	mustRestore(t, repo, "snap", data)
}

// TestRepositoryCustomBackend: WithBackend swaps container storage while
// the catalog stays at the path, and reopening with an equivalent backend
// setup works.
func TestRepositoryCustomBackend(t *testing.T) {
	dir := t.TempDir()
	backend, err := CreateFileStoreBackend(filepath.Join(dir, "containers"), 4, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := CreateRepository(dir, WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	data := repoData(5, 512<<10)
	mustBackup(t, repo, "snap", data)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	backend2, err := OpenFileStoreBackend(filepath.Join(dir, "containers"))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenRepository(dir, WithBackend(backend2))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	mustRestore(t, reopened, "snap", data)
	if gc, err := reopened.GC(context.Background()); err != nil || gc.ChunksReclaimed != 0 {
		t.Fatalf("GC on reopened custom-backend repo: %+v, %v", gc, err)
	}
}

// TestMemoryRepositoryMatchesFileBacked runs the same three generations
// through an in-memory and a file-backed repository under the paper's
// defence (MinHash keys, seeded scrambling) with the tap on: both run one
// storage path, so their dedup stats, snapshot metadata, adversary traces
// and restores must agree exactly.
func TestMemoryRepositoryMatchesFileBacked(t *testing.T) {
	var key Key
	copy(key[:], "memory equals file key")
	opts := func() []RepositoryOption {
		return []RepositoryOption{
			WithRepositoryKey(key),
			WithContainerBytes(256 << 10),
			WithEncryption(EncMinHash),
			WithKeyDeriver(NewLocalDeriver([]byte("equivalence secret"))),
			WithScramble(17),
			WithUploadObserver(nil),
		}
	}
	mem, err := CreateRepository("", opts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	file, err := CreateRepository(filepath.Join(t.TempDir(), "repo"), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	gens := [][]byte{repoData(61, 3<<20)}
	gens = append(gens, repoMutate(gens[0], 62))
	gens = append(gens, repoMutate(gens[1], 63))
	for i, data := range gens {
		name := string(rune('a' + i))
		mustBackup(t, mem, name, data)
		mustBackup(t, file, name, data)
	}

	if m, f := mem.Stats(), file.Stats(); m != f {
		t.Fatalf("Stats differ:\nmemory %+v\nfile   %+v", m, f)
	}
	ms, fs := mem.Snapshots(), file.Snapshots()
	if len(ms) != len(gens) || len(fs) != len(gens) {
		t.Fatalf("snapshot counts %d (memory), %d (file), want %d", len(ms), len(fs), len(gens))
	}
	for i := range ms {
		// CreatedAt is wall-clock seconds; the two backups of a
		// generation may straddle a second.
		ms[i].CreatedAt, fs[i].CreatedAt = time.Time{}, time.Time{}
		if ms[i] != fs[i] {
			t.Fatalf("snapshot %d differs: memory %+v, file %+v", i, ms[i], fs[i])
		}
	}
	mt, ft := mem.TraceLog().Backups(), file.TraceLog().Backups()
	if len(mt) != len(gens) || len(ft) != len(gens) {
		t.Fatalf("trace counts %d (memory), %d (file), want %d", len(mt), len(ft), len(gens))
	}
	for i := range mt {
		mb, err := mt[i].Materialize()
		if err != nil {
			t.Fatal(err)
		}
		fb, err := ft[i].Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if mb.Label != fb.Label || !reflect.DeepEqual(mb.Chunks, fb.Chunks) {
			t.Fatalf("trace %d differs between memory and file", i)
		}
	}
	for i, data := range gens {
		name := string(rune('a' + i))
		mustRestore(t, mem, name, data)
		mustRestore(t, file, name, data)
	}
}
