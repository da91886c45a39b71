package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freqdedup/internal/vfs"
)

// errSyncFault is the failure failSyncFS injects.
var errSyncFault = errors.New("injected fsync failure")

// failSyncFS is the real filesystem with the nth Sync of one file (by
// base name) failing. It does not declare its syncs ordered, so the seal
// pass runs its fsyncs on goroutines over it, as over vfs.OS.
type failSyncFS struct {
	vfs.FS
	base  string
	nth   int64
	syncs atomic.Int64
}

func (f *failSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != f.base {
		return h, err
	}
	return failSyncFile{File: h, fs: f}, nil
}

type failSyncFile struct {
	vfs.File
	fs *failSyncFS
}

func (f failSyncFile) Sync() error {
	if f.fs.syncs.Add(1) == f.fs.nth {
		return errSyncFault
	}
	return f.File.Sync()
}

// TestSealPassOnDisk drives the overlapped seal pass on the real disk,
// where each shard's fsync runs on its own goroutine.
func TestSealPassOnDisk(t *testing.T) {
	ctx := context.Background()

	// One failed fsync among sixteen in flight: the barrier fails with
	// shard 7's error, nothing is acknowledged, every sync goroutine the
	// pass started has been awaited, and the store stays sound.
	t.Run("FailedShardSync", func(t *testing.T) {
		data := repoData(74, 1<<20)
		dir := filepath.Join(t.TempDir(), "repo")
		// Shard 7's first sync is its header's at creation; the second is
		// the backup's seal pass. A container holds a whole shard's share
		// of the backup, so each shard seals once, in Store.Sync.
		fsys := &failSyncFS{FS: OSFileSystem, base: "shard-0007.fdc", nth: 2}
		opts := []RepositoryOption{WithShards(16), WithContainerBytes(4 << 20)}
		repo, err := CreateRepository(dir, append(opts, WithFileSystem(fsys))...)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		_, err = repo.Backup(ctx, "snap", bytes.NewReader(data))
		if !errors.Is(err, errSyncFault) || !strings.Contains(err.Error(), "sync shard 7:") {
			t.Fatalf("backup with a failed shard 7 fsync: err = %v, want shard 7's fsync failure", err)
		}
		if n := len(repo.Snapshots()); n != 0 {
			t.Fatalf("%d snapshots acknowledged despite a failed seal", n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after the failed backup, %d before it", n, base)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}

		reopened, err := OpenRepository(dir, opts...)
		if err != nil {
			t.Fatalf("reopen after a failed seal: %v", err)
		}
		defer reopened.Close()
		if n := len(reopened.Snapshots()); n != 0 {
			t.Fatalf("%d snapshots on disk despite the failed seal", n)
		}
		if err := reopened.Verify(ctx); err != nil {
			t.Fatalf("verify after a failed seal: %v", err)
		}
		if _, err := reopened.Backup(ctx, "snap-retry", bytes.NewReader(data)); err != nil {
			t.Fatalf("retried backup: %v", err)
		}
		mustRestore(t, reopened, "snap-retry", data)
	})

	// Concurrent backups share seal passes (Store.Sync coalesces) while
	// restores read the shards the passes append to.
	t.Run("ConcurrentBackupsAndRestores", func(t *testing.T) {
		const clients, rounds = 4, 2
		repo, err := CreateRepository(filepath.Join(t.TempDir(), "repo"))
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = func() error {
					for r := 0; r < rounds; r++ {
						name := fmt.Sprintf("c%d-r%d", k, r)
						data := repoData(int64(600+10*k+r), 512<<10)
						if _, err := repo.Backup(ctx, name, bytes.NewReader(data)); err != nil {
							return fmt.Errorf("backup %s: %w", name, err)
						}
						var out bytes.Buffer
						if err := repo.Restore(ctx, name, &out); err != nil {
							return fmt.Errorf("restore %s: %w", name, err)
						}
						if !bytes.Equal(out.Bytes(), data) {
							return fmt.Errorf("restore %s: bytes differ", name)
						}
					}
					return nil
				}()
			}(k)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < clients; k++ {
			for r := 0; r < rounds; r++ {
				mustRestore(t, repo, fmt.Sprintf("c%d-r%d", k, r), repoData(int64(600+10*k+r), 512<<10))
			}
		}
		if err := repo.Verify(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
