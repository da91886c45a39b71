package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/mle"
)

// restoreModes enumerates every Config encryption/defense mode, as the
// acceptance matrix requires.
func restoreModes(t *testing.T) map[string]Config {
	t.Helper()
	deriver := mle.NewLocalDeriver([]byte("restore-test-secret"))
	return map[string]Config{
		"convergent":  {},
		"serverAided": {Encryption: EncServerAided, Deriver: deriver},
		"minhash":     {Encryption: EncMinHash, Deriver: deriver},
		"scramble":    {Scramble: true, ScrambleSeed: 7},
	}
}

// restoreSerial is the chunk-at-a-time restore: one store lookup and one
// decrypt per recipe entry, in order. It is the oracle the planned restore
// is proven against.
func restoreSerial(t *testing.T, store *Store, recipe *mle.Recipe) []byte {
	t.Helper()
	var out bytes.Buffer
	for i, e := range recipe.Entries {
		ct, err := store.Get(e.Fingerprint)
		if err != nil {
			t.Fatalf("oracle: chunk %d (%v): %v", i, e.Fingerprint, err)
		}
		plain := mle.DecryptDeterministic(e.Key, ct)
		if len(plain) != int(e.Size) {
			t.Fatalf("oracle: chunk %d size %d, recipe says %d", i, len(plain), e.Size)
		}
		out.Write(plain)
	}
	return out.Bytes()
}

// forceWindow sets the restore window's budget to the given number of
// containers; 0 forces a single byte, so the window holds one container at
// a time and every change of container in the recipe is a read.
func forceWindow(c *Client, containers int) {
	c.windowBudget = int64(containers) * int64(c.store.containerBytes)
	if containers == 0 {
		c.windowBudget = 1
	}
}

// TestParallelRestoreMatchesSerial is the restore's bit-for-bit
// guarantee: for every Config mode, the planned restore produces output
// identical to the serial chunk-at-a-time oracle — and to the original
// stream — at workers ∈ {1, 4, 16} with the window forced to {0, 1, 64}
// containers ("cache="): one container at a time, deep in eviction, and
// everything resident. Run under -race, it is also the restore's
// concurrency proof.
func TestParallelRestoreMatchesSerial(t *testing.T) {
	data := randData(91, 1<<20)
	for mode, cfg := range restoreModes(t) {
		t.Run(mode, func(t *testing.T) {
			// Small containers so the recipe spans many of them and the
			// window has real work to do.
			store := NewStoreWithShards(32<<10, DefaultShards)
			cfg := cfg
			cfg.Workers = 4
			client, err := NewClient(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recipe, err := client.Backup(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			serial := restoreSerial(t, store, recipe)
			if !bytes.Equal(serial, data) {
				t.Fatal("serial restore does not reproduce the original stream")
			}
			for _, workers := range []int{1, 4, 16} {
				for _, window := range []int{0, 1, 64} {
					t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, window), func(t *testing.T) {
						rcfg := cfg
						rcfg.Workers = workers
						rc, err := NewClient(store, rcfg)
						if err != nil {
							t.Fatal(err)
						}
						forceWindow(rc, window)
						var out bytes.Buffer
						if err := rc.Restore(recipe, &out); err != nil {
							t.Fatalf("planned restore: %v", err)
						}
						if !bytes.Equal(out.Bytes(), serial) {
							t.Fatal("planned restore differs from serial restore")
						}
					})
				}
			}
		})
	}
}

// TestRestoreDispatch checks the public Restore entry point at the worker
// counts a caller can ask for: one, several, and 0 (GOMAXPROCS).
func TestRestoreDispatch(t *testing.T) {
	data := randData(92, 512<<10)
	store := NewStoreWithShards(32<<10, 4)
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Workers: 1}, {Workers: 0}, {Workers: 3}} {
		rc, err := NewClient(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("Restore with %+v mismatched", cfg)
		}
	}
}

// TestFileBackedRestoreAfterReopen proves the persistence round trip of
// the acceptance criteria: backup into a file-backed store, close the
// process's store object, Open the directory again, and restore the same
// bytes through the planned restore.
func TestFileBackedRestoreAfterReopen(t *testing.T) {
	dir := t.TempDir()
	data := randData(93, 1<<20)

	store, err := Create(dir, 32<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	beforeUnique := store.UniqueChunks()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.UniqueChunks(); got != beforeUnique {
		t.Fatalf("reopened store has %d unique chunks, want %d", got, beforeUnique)
	}
	for _, cfg := range []Config{{Workers: 1}, {Workers: 4}} {
		rc, err := NewClient(reopened, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore after reopen (%+v): %v", cfg, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("reopened restore mismatched (%+v)", cfg)
		}
	}
	// Dedup against the reopened index: re-backing-up the same stream
	// must store nothing new.
	rc, err := NewClient(reopened, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Backup(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if got := reopened.UniqueChunks(); got != beforeUnique {
		t.Fatalf("re-backup after reopen stored %d new chunks", got-beforeUnique)
	}
}

// TestFileBackedGCThenRestore exercises the GC sweep's rewrite through
// the file backend: expire one of two backups, GC, reopen, and restore
// the survivor.
func TestFileBackedGCThenRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 32<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := randData(94, 512<<10)
	v2 := mutate(v1, 95)
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
	st, err := store.GC()
	if err != nil {
		t.Fatalf("GC through file backend: %v", err)
	}
	if st.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("open after GC rewrite: %v", err)
	}
	defer reopened.Close()
	rc, err := NewClient(reopened, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rc.Restore(r2, &out); err != nil {
		t.Fatalf("survivor restore after GC+reopen: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Fatal("survivor restore mismatched after GC+reopen")
	}
}

// corruptShardFile flips one byte inside the data region of the given
// shard file's first record.
func corruptShardFile(t *testing.T, dir string, shard int) {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("shard-%04d.fdc", shard))
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 64 {
		t.Fatalf("shard file %s too small to corrupt meaningfully", name)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreCorruptContainerOnDisk flips a byte in a persisted container
// and checks that restore surfaces container.ErrCorrupt at every worker
// count instead of returning wrong bytes.
func TestRestoreCorruptContainerOnDisk(t *testing.T) {
	dir := t.TempDir()
	data := randData(96, 256<<10)
	store, err := Create(dir, 32<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	corruptShardFile(t, dir, 0)

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open validates structure only, should succeed: %v", err)
	}
	defer reopened.Close()
	for _, cfg := range []Config{{Workers: 1}, {Workers: 4}} {
		rc, err := NewClient(reopened, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = rc.Restore(recipe, &out)
		if err == nil {
			t.Fatalf("restore of corrupted store succeeded (%+v)", cfg)
		}
		if !errors.Is(err, container.ErrCorrupt) {
			t.Fatalf("restore error %v, want container.ErrCorrupt", err)
		}
	}
}

// TestOpenTruncatedStoreDir covers Open's two truncation regimes: a torn
// record tail is recovered (losing only the unacknowledged container,
// which restore then reports as a missing chunk), while a file truncated
// into its header is structural corruption and refuses to open.
func TestOpenTruncatedStoreDir(t *testing.T) {
	dir := t.TempDir()
	data := randData(97, 256<<10)
	store, err := Create(dir, 32<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	name := filepath.Join(dir, "shard-0000.fdc")
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(name, st.Size()-25); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("open after torn tail should recover: %v", err)
	}
	rc, err := NewClient(reopened, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rc.Restore(recipe, &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore with a truncated container: %v, want ErrNotFound", err)
	}
	reopened.Close()

	// Truncating into the file header is not recoverable.
	if err := os.Truncate(name, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("Open of truncated header: %v, want container.ErrCorrupt", err)
	}
}

// failAfterWriter fails with errBoom once n bytes have been written.
type failAfterWriter struct {
	n       int
	written int
}

var errBoom = errors.New("boom")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errBoom
	}
	w.written += len(p)
	return len(p), nil
}

// TestRestoreWriterErrorReleasesPooledBuffers mirrors the backup
// pipeline's drain-on-error contract: a mid-restore writer failure must
// stop the restore, propagate the error, and hand every pooled plaintext
// buffer back (in-flight slabs included).
func TestRestoreWriterErrorReleasesPooledBuffers(t *testing.T) {
	data := randData(98, 1<<20)
	store := NewStoreWithShards(32<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	baseline := restoreBufsOutstanding.Load()
	for _, failAt := range []int{0, 100, 128 << 10, 768 << 10} {
		err := client.Restore(recipe, &failAfterWriter{n: failAt})
		if !errors.Is(err, errBoom) {
			t.Fatalf("restore with writer failing at %d: %v, want errBoom", failAt, err)
		}
		if got := restoreBufsOutstanding.Load(); got != baseline {
			t.Fatalf("failAt=%d: %d pooled restore buffers outstanding, want %d",
				failAt, got, baseline)
		}
	}
	// And a clean restore still works afterwards, reusing the pool.
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after writer-error drains mismatched")
	}
	if got := restoreBufsOutstanding.Load(); got != baseline {
		t.Fatalf("%d pooled restore buffers outstanding after clean restore", got)
	}
}

// TestRestoreMissingChunkParallel: a recipe referencing an unknown
// fingerprint fails the plan with ErrNotFound before any worker runs.
func TestRestoreMissingChunkParallel(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe := &mle.Recipe{Entries: []mle.RecipeEntry{{
		Fingerprint: [8]byte{1, 2, 3},
		Size:        16,
	}}}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of unknown chunk: %v, want ErrNotFound", err)
	}
}

// TestRestoreConcurrentWithGC restores a registered backup while GC
// passes reclaim interleaved garbage and compact the shards underneath
// it: planned locations go stale and planned containers can vanish
// mid-restore, exercising the fingerprint-verified fallback paths.
func TestRestoreConcurrentWithGC(t *testing.T) {
	store := NewStoreWithShards(16<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := randData(100, 512<<10)
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterBackup("keep", recipe); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() {
		defer close(churnDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh unregistered garbage, then a GC that reclaims it —
			// every pass rewrites containers and moves live locations.
			gcClient, err := NewClient(store, Config{Workers: 1})
			if err != nil {
				churnDone <- err
				return
			}
			if _, err := gcClient.Backup(bytes.NewReader(randData(2000+i, 128<<10))); err != nil {
				churnDone <- err
				return
			}
			if _, err := store.GC(); err != nil {
				churnDone <- err
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		rc, err := NewClient(store, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore %d concurrent with GC: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restore %d mismatched under concurrent GC", i)
		}
	}
	close(stop)
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}
}

// TestRestoreConcurrentWithBackups runs restores while other clients
// append to the same store — open containers seal mid-restore — proving
// the locate/read race handling under -race.
func TestRestoreConcurrentWithBackups(t *testing.T) {
	store := NewStoreWithShards(32<<10, DefaultShards)
	data := randData(99, 512<<10)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			wc, err := NewClient(store, Config{Workers: 2})
			if err != nil {
				writerDone <- err
				return
			}
			if _, err := wc.Backup(bytes.NewReader(randData(1000+i, 64<<10))); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		rc, err := NewClient(store, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rc.Restore(recipe, &out); err != nil {
			t.Fatalf("restore %d concurrent with backups: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restore %d mismatched under concurrent backups", i)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
