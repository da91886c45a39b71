package dedup

import (
	"bytes"
	"testing"

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
