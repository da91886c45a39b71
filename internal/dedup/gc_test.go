package dedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// setupTwoBackups stores two versions sharing most content and registers
// both, returning the store, client, and recipes.
func setupTwoBackups(t *testing.T) (*Store, *Client, *mle.Recipe, *mle.Recipe) {
	t.Helper()
	store := NewStore(64 << 10)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := randData(21, 1<<20)
	v2 := mutate(v1, 22)
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
	return store, client, r1, r2
}

func TestGCReclaimsNothingWhileReferenced(t *testing.T) {
	store, client, r1, r2 := setupTwoBackups(t)
	before := store.Stats().PhysicalBytes
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed != 0 || st.BytesReclaimed != 0 {
		t.Fatalf("GC reclaimed referenced data: %+v", st)
	}
	if store.Stats().PhysicalBytes != before {
		t.Fatal("physical bytes changed without reclamation")
	}
	// Both backups still restore.
	for _, r := range []*mle.Recipe{r1, r2} {
		var out bytes.Buffer
		if err := client.Restore(r, &out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGCReclaimsAfterDelete(t *testing.T) {
	store, client, r1, r2 := setupTwoBackups(t)
	before := store.Stats().PhysicalBytes
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed == 0 || st.BytesReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing after deleting a backup: %+v", st)
	}
	after := store.Stats().PhysicalBytes
	if after != before-st.BytesReclaimed {
		t.Fatalf("physical accounting wrong: %d != %d - %d", after, before, st.BytesReclaimed)
	}
	// The surviving backup must still restore bit-for-bit after container
	// compaction relocated its chunks.
	var out bytes.Buffer
	if err := client.Restore(r2, &out); err != nil {
		t.Fatalf("surviving backup broken after GC: %v", err)
	}
	// The deleted backup's unique chunks must be gone.
	var missing int
	for _, e := range r1.Entries {
		if _, err := store.Get(e.Fingerprint); errors.Is(err, ErrNotFound) {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("no chunk of the deleted backup was reclaimed")
	}
}

func TestGCDeleteAllBackups(t *testing.T) {
	store, _, _, _ := setupTwoBackups(t)
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteBackup("b2"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GC(); err != nil {
		t.Fatal(err)
	}
	if store.Stats().PhysicalBytes != 0 {
		t.Fatalf("physical bytes %d after deleting everything", store.Stats().PhysicalBytes)
	}
	if store.UniqueChunks() != 0 {
		t.Fatalf("%d chunks survive with no backups", store.UniqueChunks())
	}
}

func TestDeleteBackupErrors(t *testing.T) {
	store := NewStore(0)
	if err := store.DeleteBackup("nope"); !errors.Is(err, ErrUnknownBackup) {
		t.Fatalf("err = %v, want ErrUnknownBackup", err)
	}
}

func TestRegisterBackupDuplicateID(t *testing.T) {
	store := NewStore(0)
	r := &mle.Recipe{}
	if err := store.RegisterBackup("a", r); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("a", r); err == nil {
		t.Fatal("duplicate backup id accepted")
	}
	if got := store.Backups(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Backups() = %v", got)
	}
}

func TestBackupsSorted(t *testing.T) {
	store := NewStore(0)
	r := &mle.Recipe{}
	for _, id := range []string{"w", "a", "m", "c", "z", "b"} {
		if err := store.RegisterBackup(id, r); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a", "b", "c", "m", "w", "z"}
	for try := 0; try < 5; try++ {
		got := store.Backups()
		if len(got) != len(want) {
			t.Fatalf("Backups() = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Backups() = %v, want sorted %v", got, want)
			}
		}
	}
}

func TestGCIdempotent(t *testing.T) {
	store, client, _, r2 := setupTwoBackups(t)
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GC(); err != nil {
		t.Fatal(err)
	}
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed != 0 {
		t.Fatalf("second GC reclaimed %d chunks", st.ChunksReclaimed)
	}
	var out bytes.Buffer
	if err := client.Restore(r2, &out); err != nil {
		t.Fatal(err)
	}
}

func TestGCSharedChunksSurvive(t *testing.T) {
	// A chunk referenced by two backups must survive deleting one of them.
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(33, 256<<10)
	r1, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Backup(bytes.NewReader(data)) // identical content
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("x", r1); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("y", r2); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteBackup("x"); err != nil {
		t.Fatal(err)
	}
	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksReclaimed != 0 {
		t.Fatalf("GC reclaimed %d chunks still referenced by backup y", st.ChunksReclaimed)
	}
	var out bytes.Buffer
	if err := client.Restore(r2, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("shared-chunk restore failed after GC")
	}
}

// TestGCRacesSyncOnFileStore runs GC passes against seal passes on a
// file-backed store. Both hold every shard lock, taken in index order,
// so neither can deadlock the other; a GC may land between two Syncs or
// wait out one, and afterwards every kept chunk still reads back, and
// the store verifies live and after a reopen.
func TestGCRacesSyncOnFileStore(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 16<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 20, 24
	kept := make(map[fphash.Fingerprint][]byte)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the collector
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := store.GC(); err != nil {
				errs <- fmt.Errorf("gc: %w", err)
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		// The even chunks are registered before they are put, so the
		// collector keeps them; the odd ones are its garbage.
		chunks := make([][]byte, perRound)
		var recipe mle.Recipe
		for i := range chunks {
			chunks[i] = randData(int64(1000*r+i), 1+(r*perRound+i)%(3<<10))
			if i%2 == 0 {
				fp := fphash.FromBytes(chunks[i])
				recipe.Entries = append(recipe.Entries, mle.RecipeEntry{Fingerprint: fp, Size: uint32(len(chunks[i]))})
				kept[fp] = chunks[i]
			}
		}
		if err := store.RegisterBackup(fmt.Sprintf("b%d", r), &recipe); err != nil {
			t.Fatal(err)
		}
		for _, data := range chunks {
			if _, err := store.Put(fphash.FromBytes(data), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Sync(); err != nil {
			t.Fatalf("sync %d: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		for fp, want := range kept {
			got, err := s.Get(fp)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("kept chunk %v: err %v, bytes equal %v", fp, err, bytes.Equal(got, want))
			}
		}
		if err := s.Verify(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	check(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened)
}
