package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"freqdedup/internal/faultio"
	"freqdedup/internal/vfs"
)

// countingFS wraps a vfs.FS and counts Sync and WriteAt calls per file
// base name, so a test can learn deterministically how many syncs a setup
// phase costs and arm a fault at exactly the next one. A nonzero
// syncDelay stretches every Sync, as a slow disk would, so concurrent
// commits pile up behind an in-flight fsync; a non-nil gate runs before
// each Sync reaches the wrapped file, with the file's base name.
type countingFS struct {
	vfs.FS
	syncDelay time.Duration
	gate      func(base string)
	mu        sync.Mutex
	syncs     map[string]int
	writes    map[string]int
}

func newCountingFS(inner vfs.FS) *countingFS {
	return &countingFS{FS: inner, syncs: make(map[string]int), writes: make(map[string]int)}
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c, name: name}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c, name: name}, nil
}

// SyncsOrdered forwards the wrapped filesystem's declaration, so a
// countingFS over faultio.MemFS keeps the crash clock's sync order.
func (c *countingFS) SyncsOrdered() bool { return vfs.SyncsOrdered(c.FS) }

func (c *countingFS) synced(name string) {
	c.mu.Lock()
	c.syncs[filepath.Base(name)]++
	c.mu.Unlock()
}

func (c *countingFS) wrote(name string) {
	c.mu.Lock()
	c.writes[filepath.Base(name)]++
	c.mu.Unlock()
}

// count returns the Syncs of the files whose base names match pattern.
func (c *countingFS) count(pattern string) int {
	return c.tally(c.syncs, pattern)
}

// writeCount returns the WriteAts of the files whose base names match
// pattern.
func (c *countingFS) writeCount(pattern string) int {
	return c.tally(c.writes, pattern)
}

func (c *countingFS) tally(calls map[string]int, pattern string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for base, k := range calls {
		if ok, _ := filepath.Match(pattern, base); ok {
			n += k
		}
	}
	return n
}

type countingFile struct {
	vfs.File
	fs   *countingFS
	name string
}

func (f countingFile) Sync() error {
	f.fs.synced(f.name)
	if f.fs.gate != nil {
		f.fs.gate(filepath.Base(f.name))
	}
	time.Sleep(f.fs.syncDelay)
	return f.File.Sync()
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.wrote(f.name)
	return n, err
}

// TestBackupNotAckedOnSyncFailure is the fsync-propagation audit: for
// each of the three durable formats — container shards, snapshot
// catalog, trace log — a failed fsync during Backup must surface as a
// Backup error, and the snapshot must not exist, neither live nor after
// a crash-and-reopen. An acknowledged snapshot whose durability barrier
// silently failed would be the worst bug this stack can have.
func TestBackupNotAckedOnSyncFailure(t *testing.T) {
	data := repoData(71, 128<<10)
	var key Key
	copy(key[:], "sync fault key")
	baseOpts := func(fs FileSystem) []RepositoryOption {
		return []RepositoryOption{
			WithFileSystem(fs), WithRepositoryKey(key),
			WithShards(2), WithContainerBytes(16 << 10),
			WithUploadObserver(nil),
		}
	}
	ctx := context.Background()

	// Calibration pass: how many syncs does each file see before the
	// backup's own barriers run?
	calib := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", baseOpts(calib)...)
	if err != nil {
		t.Fatal(err)
	}
	preBackup := map[string]int{
		"shard-*.fdc": calib.count("shard-*.fdc"),
		"catalog.fdr": calib.count("catalog.fdr"),
		"traces.fdt":  calib.count("traces.fdt"),
	}
	if _, err := repo.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
		t.Fatalf("calibration backup: %v", err)
	}
	for pat, pre := range preBackup {
		if calib.count(pat) <= pre {
			t.Fatalf("calibration: backup did not sync %s — no durability barrier to test", pat)
		}
	}
	repo.Close()

	for _, pat := range []string{"shard-*.fdc", "catalog.fdr", "traces.fdt"} {
		t.Run(pat, func(t *testing.T) {
			// Fail the first sync of this file past the setup phase: the
			// backup's durability barrier.
			m := faultio.NewMemFSPlan(faultio.Plan{Seed: 71, Rules: []faultio.Rule{{
				Op: faultio.OpSync, PathGlob: pat, Nth: preBackup[pat] + 1,
			}}})
			repo, err := CreateRepository("repo", baseOpts(m)...)
			if err != nil {
				t.Fatal(err)
			}
			_, err = repo.Backup(ctx, "snap", bytes.NewReader(data))
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("backup with failed %s sync: err = %v, want injected sync failure", pat, err)
			}
			for _, s := range repo.Snapshots() {
				if s.Name == "snap" {
					t.Fatalf("snapshot acked live despite failed %s sync", pat)
				}
			}
			repo.Close()

			// And the machine dying right now must agree: nothing in the
			// durable image claims the snapshot exists.
			img := m.CrashImage()
			reopened, err := OpenRepository("repo", baseOpts(img)...)
			if err != nil {
				t.Fatalf("reopen after failed sync: %v", err)
			}
			defer reopened.Close()
			for _, s := range reopened.Snapshots() {
				if s.Name == "snap" {
					t.Fatalf("snapshot survived crash despite failed %s sync", pat)
				}
			}
			if err := reopened.Verify(ctx); err != nil {
				t.Fatalf("verify after failed-sync crash: %v", err)
			}
			// The failure was transient-free and clean: a retried backup on
			// the live filesystem succeeds (the rule fired its once).
			repo2, err := OpenRepository("repo", baseOpts(m)...)
			if err != nil {
				t.Fatal(err)
			}
			defer repo2.Close()
			if _, err := repo2.Backup(ctx, "snap-retry", bytes.NewReader(data)); err != nil {
				t.Fatalf("retried backup after one-shot sync fault: %v", err)
			}
			mustRestore(t, repo2, "snap-retry", data)
		})
	}
}

// TestSealFaultInSyncPass: Store.Sync seals the shards one after another,
// in shard order, so the crash sweep sees the same operations every run.
// A failed seal of shard 7 of 16 must fail the whole barrier with shard
// 7's error and seal no shard after it; the backup acknowledges nothing —
// neither live nor in the crash image — and a retried backup succeeds and
// restores.
func TestSealFaultInSyncPass(t *testing.T) {
	data := repoData(72, 1<<20)
	var key Key
	copy(key[:], "seal fault key")
	opts := func(fs FileSystem) []RepositoryOption {
		// A container holds a whole shard's share of the backup, so each
		// shard's one seal of the backup is the one Store.Sync runs.
		return []RepositoryOption{
			WithFileSystem(fs), WithRepositoryKey(key),
			WithShards(16), WithContainerBytes(4 << 20),
		}
	}
	ctx := context.Background()
	shardFile := func(i int) string { return fmt.Sprintf("shard-%04d.fdc", i) }

	// Calibration pass: how many syncs each shard's file sees before the
	// backup, and that the backup seals every shard exactly once.
	calib := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", opts(calib)...)
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]int, 16)
	for i := range pre {
		pre[i] = calib.count(shardFile(i))
	}
	if _, err := repo.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
		t.Fatalf("calibration backup: %v", err)
	}
	for i := range pre {
		if got := calib.count(shardFile(i)) - pre[i]; got != 1 {
			t.Fatalf("calibration: backup synced %s %d times, want its one seal", shardFile(i), got)
		}
	}
	repo.Close()

	m := faultio.NewMemFSPlan(faultio.Plan{Seed: 72, Rules: []faultio.Rule{{
		Op: faultio.OpSync, PathGlob: shardFile(7), Nth: pre[7] + 1,
	}}})
	counted := newCountingFS(m)
	repo, err = CreateRepository("repo", opts(counted)...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = repo.Backup(ctx, "snap", bytes.NewReader(data))
	if !errors.Is(err, faultio.ErrInjected) || !strings.Contains(err.Error(), "sync shard 7:") {
		t.Fatalf("backup with a failed shard 7 seal: err = %v, want shard 7's injected seal failure", err)
	}
	// Counted before Close, which seals the containers the pass left open.
	// Shard 7 itself also syncs the truncate that discards its torn append.
	for i := range pre {
		switch got := counted.count(shardFile(i)); {
		case i < 7 && got != pre[i]+1:
			t.Errorf("%s synced %d times by the failed pass, want its one seal", shardFile(i), got-pre[i])
		case i > 7 && got != pre[i]:
			t.Errorf("%s synced %d times after shard 7's seal failed, want none", shardFile(i), got-pre[i])
		}
	}
	if len(repo.Snapshots()) != 0 {
		t.Fatalf("snapshot acked live despite a failed seal: %+v", repo.Snapshots())
	}
	repo.Close()

	reopened, err := OpenRepository("repo", opts(m.CrashImage())...)
	if err != nil {
		t.Fatalf("reopen after failed seal: %v", err)
	}
	if n := len(reopened.Snapshots()); n != 0 {
		t.Fatalf("%d snapshots survived a crash despite the failed seal", n)
	}
	if err := reopened.Verify(ctx); err != nil {
		t.Fatalf("verify after failed-seal crash: %v", err)
	}
	reopened.Close()

	// The rule fired its once: a retried backup on the live filesystem
	// seals every shard and restores.
	repo2, err := OpenRepository("repo", opts(m)...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if _, err := repo2.Backup(ctx, "snap-retry", bytes.NewReader(data)); err != nil {
		t.Fatalf("retried backup after a one-shot seal fault: %v", err)
	}
	mustRestore(t, repo2, "snap-retry", data)
}

// TestFlipBitNeverRestoresWrongBytes flips one bit of a container shard
// during a backup — in flight on a write, or on the media after an
// acknowledged fsync — at each of the shard file's first writes and
// syncs. The backup cannot notice; the reopened repository must. Each
// case ends in exact bytes, in a loud ErrStoreCorrupt, or in a degraded
// restore that reports the damaged ranges and is exact outside them —
// never in wrong bytes passed off as the snapshot.
func TestFlipBitNeverRestoresWrongBytes(t *testing.T) {
	data := repoData(73, 192<<10)
	var key Key
	copy(key[:], "flip bit key")
	opts := func(fs FileSystem, extra ...RepositoryOption) []RepositoryOption {
		return append([]RepositoryOption{
			WithFileSystem(fs), WithRepositoryKey(key),
			WithShards(2), WithContainerBytes(16 << 10),
		}, extra...)
	}
	ctx := context.Background()

	// restore classifies one restore of "snap": exact bytes, a detected
	// corruption, or a degraded restore with its damage reported.
	restore := func(t *testing.T, repo *Repository) string {
		t.Helper()
		var out bytes.Buffer
		err := repo.Restore(ctx, "snap", &out)
		var de *DegradedError
		switch {
		case err == nil:
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("restore returned wrong bytes without an error")
			}
			return "exact"
		case errors.As(err, &de):
			if len(de.Ranges) == 0 || out.Len() != len(data) {
				t.Fatalf("degraded restore: %d ranges, %d of %d bytes", len(de.Ranges), out.Len(), len(data))
			}
			got := out.Bytes()
			want := append([]byte(nil), data...)
			for _, r := range de.Ranges {
				for i := r.Offset; i < r.Offset+r.Length; i++ {
					want[i] = 0
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatal("degraded restore is wrong outside its reported ranges")
			}
			return "degraded"
		case errors.Is(err, ErrStoreCorrupt):
			return "corrupt"
		default:
			t.Fatalf("restore: %v, want exact bytes, ErrStoreCorrupt or a DegradedError", err)
			return ""
		}
	}

	for _, op := range []faultio.Op{faultio.OpWrite, faultio.OpSync} {
		outcomes := make(map[string]int)
		for nth := 1; nth <= 6; nth++ {
			t.Run(fmt.Sprintf("%s-%d", op, nth), func(t *testing.T) {
				m := faultio.NewMemFSPlan(faultio.Plan{Seed: int64(nth), Rules: []faultio.Rule{{
					Op: op, PathGlob: "shard-0000.fdc", Nth: nth, Fault: faultio.Fault{FlipBit: true},
				}}})
				repo, err := CreateRepository("repo", opts(m)...)
				if err != nil {
					t.Fatal(err)
				}
				mustBackup(t, repo, "snap", data)
				if err := repo.Close(); err != nil {
					t.Fatal(err)
				}

				repo, err = OpenRepository("repo", opts(m)...)
				if err != nil {
					// The flip hit the file's structure: opening fails
					// loudly, and a salvage open either restores degraded
					// or, past a damaged file header, fails loudly too.
					if !errors.Is(err, ErrStoreCorrupt) {
						t.Fatalf("reopen: %v, want ErrStoreCorrupt", err)
					}
					repo, err = OpenRepository("repo", opts(m, WithSalvage(), WithDegradedRestore())...)
					if err != nil {
						if !errors.Is(err, ErrStoreCorrupt) {
							t.Fatalf("salvage open: %v, want ErrStoreCorrupt", err)
						}
						outcomes["unsalvageable"]++
						return
					}
					defer repo.Close()
					outcomes["salvaged "+restore(t, repo)]++
					return
				}
				got := restore(t, repo)
				outcomes[got]++
				repo.Close()
				if got == "corrupt" {
					repo, err = OpenRepository("repo", opts(m, WithDegradedRestore())...)
					if err != nil {
						t.Fatal(err)
					}
					defer repo.Close()
					if d := restore(t, repo); d != "degraded" {
						t.Fatalf("degraded restore of a corrupt snapshot: %s", d)
					}
				}
			})
		}
		t.Logf("%s flips: %v", op, outcomes)
		if outcomes["exact"] == 6 {
			t.Errorf("no %s flip was ever detected: the cases never reached a container record", op)
		}
	}
}

// TestCreateRepositoryFailsOnDirSyncFailure: creating the repository's
// files is durable only once their directory entries are, so a failed
// sync of the repository directory fails the create.
func TestCreateRepositoryFailsOnDirSyncFailure(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{Op: faultio.OpSync, PathGlob: "repo", Count: -1}}})
	repo, err := CreateRepository("repo", WithFileSystem(m))
	if err == nil {
		repo.Close()
		t.Fatal("CreateRepository succeeded with every sync of its directory failing")
	}
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("CreateRepository: err = %v, want the injected sync failure", err)
	}
}

// TestIndexDirSyncFailureKeepsRepository: the fingerprint index commits
// a manifest by renaming it into place, so a failed sync of the index
// directory after that rename must not make the index delete the run the
// committed manifest names. With every such sync failing, backups and
// Close succeed and the repository reopens and restores.
func TestIndexDirSyncFailureKeepsRepository(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{Op: faultio.OpSync, PathGlob: "repo/fpindex", Count: -1}}})
	fsys := newCountingFS(m)
	opts := []RepositoryOption{WithFileSystem(fsys), WithShards(2), WithContainerBytes(16 << 10)}
	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, b := repoData(81, 256<<10), repoData(82, 256<<10)
	mustBackup(t, repo, "a", a)
	mustBackup(t, repo, "b", b)
	if err := repo.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fsys.count("fpindex") == 0 {
		t.Fatal("the index directory was never synced: the rule never fired")
	}
	repo, err = OpenRepository("repo", opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer repo.Close()
	mustRestore(t, repo, "a", a)
	mustRestore(t, repo, "b", b)
}
