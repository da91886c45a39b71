package dedup

import (
	"bytes"
	"errors"
	"testing"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/container"
	"freqdedup/internal/faultio"
	"freqdedup/internal/fphash"
)

// sealingWriter is a restore's writer that, on its first Write, runs
// seal: bytes the restore has not decrypted yet then depend on what
// seal does to the store.
type sealingWriter struct {
	bytes.Buffer
	seal func()
}

func (w *sealingWriter) Write(p []byte) (int, error) {
	if w.seal != nil {
		w.seal()
		w.seal = nil
	}
	return w.Buffer.Write(p)
}

// TestOpenContainerViewsSurviveSeal holds the two paths that hand out an
// open container's bytes to copying them under the shard lock. A
// file-backed store packs each open container into an arena whose blocks
// are recycled once it is sealed, so a view of them that outlived the lock
// would read the next container's chunks. A chunk of the open container is
// read through Store.Get, and the container through a restore, whose
// writer, on its first slab, seals the container (Sync) and backs up as
// much new data again, which packs into the recycled blocks. The Get
// copy must still hash to its fingerprint, and the restore, whose later
// slabs decrypt after the seal, must still return the original bytes.
func TestOpenContainerViewsSurviveSeal(t *testing.T) {
	const containerBytes = 8 << 20
	store, err := Create(t.TempDir(), containerBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Workers: 1 lets at most two slabs run ahead of the writer, so the
	// restore decrypts most of the container after the seal.
	client, err := NewClient(store, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(71, 6<<20)
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := store.ContainerCount(); n != 1 {
		t.Fatalf("%d containers, want the backup in one open container", n)
	}
	fp := recipe.Entries[len(recipe.Entries)/2].Fingerprint
	got, err := store.Get(fp)
	if err != nil {
		t.Fatal(err)
	}

	overwrite := func() {
		if err := store.Sync(); err != nil {
			t.Error(err)
			return
		}
		other, err := NewClient(store, Config{Workers: 1})
		if err == nil {
			_, err = other.Backup(bytes.NewReader(randData(72, len(data))))
		}
		if err != nil {
			t.Error(err)
		}
	}
	out := &sealingWriter{seal: overwrite}
	if err := client.Restore(recipe, out); err != nil {
		t.Fatal(err)
	}
	if out.seal != nil {
		t.Fatal("the restore never wrote")
	}
	if store.ContainerCount() < 2 {
		t.Fatal("the second backup did not pack a new container")
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("a restore of the open container returned other bytes once it was sealed and its memory reused")
	}
	if fphash.FromBytes(got) != fp {
		t.Fatal("a Get of an open-container chunk changed once the container was sealed and its memory reused")
	}
}

// TestCloseAfterFailedSealReturnsBuffers: a file-backed store whose every
// shard fsync fails keeps its open containers' arena blocks through the
// failed seals, and Close hands them back all the same, so the buffer
// pool's count is at its baseline once the store is closed.
func TestCloseAfterFailedSealReturnsBuffers(t *testing.T) {
	const shards = 4
	base := bufpool.Outstanding()
	// Every shard fsync past the shard files' creation, one each, fails.
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{
		Op: faultio.OpSync, PathGlob: "shard-*", Nth: shards + 1, Count: -1,
	}}})
	backend, err := container.CreateFileBackendFS(m, "store", shards, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithBackend(1<<20, backend)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Backup(bytes.NewReader(randData(73, 2<<20))); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Sync with every shard fsync failing: err = %v, want the injected failure", err)
	}
	if got := bufpool.Outstanding(); got.Bufs <= base.Bufs {
		t.Fatalf("Outstanding = %+v after failed seals, want the open containers' blocks above %+v", got, base)
	}
	if err := store.Close(); err == nil {
		t.Fatal("Close sealed what every fsync fails")
	}
	if got := bufpool.Outstanding(); got != base {
		t.Fatalf("Outstanding = %+v after Close, want the baseline %+v", got, base)
	}
}
