package freqdedup

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"freqdedup/internal/faultio"
)

// Repository-level properties of group-commit durability (WithGroupCommit):
// concurrent Backups share fsyncs, a lone Backup pays at most the straggler
// window per commit layer, and under crash injection an acknowledged Backup
// is always covered by a completed fsync — even when that fsync was a
// shared group commit.

func gcTestOptions(fs FileSystem, window time.Duration) []RepositoryOption {
	var key Key
	copy(key[:], "group commit key")
	opts := []RepositoryOption{
		WithFileSystem(fs), WithRepositoryKey(key),
		WithShards(2), WithContainerBytes(16 << 10),
		WithUploadObserver(nil),
	}
	if window > 0 {
		opts = append(opts, WithGroupCommit(window))
	}
	return opts
}

// TestGroupCommitBatchesSyncs: N concurrent Backups under a group-commit
// window must share durability fsyncs — strictly fewer catalog and trace-log
// syncs than backups — while every backup still acks and restores.
func TestGroupCommitBatchesSyncs(t *testing.T) {
	const n = 8
	ctx := context.Background()
	cfs := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", gcTestOptions(cfs, 20*time.Millisecond)...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	preCat := cfs.count("catalog.fdr")
	preTrace := cfs.count("traces.fdt")

	datas := make([][]byte, n)
	for i := range datas {
		datas[i] = repoData(int64(100+i), 32<<10)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = repo.Backup(ctx, fmt.Sprintf("snap-%d", i), bytes.NewReader(datas[i]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("backup %d: %v", i, err)
		}
	}

	if d := cfs.count("catalog.fdr") - preCat; d >= n {
		t.Errorf("catalog fsyncs not batched: %d syncs for %d concurrent backups", d, n)
	} else {
		t.Logf("catalog: %d fsyncs for %d concurrent backups", d, n)
	}
	if d := cfs.count("traces.fdt") - preTrace; d >= n {
		t.Errorf("trace-log fsyncs not batched: %d syncs for %d concurrent backups", d, n)
	}
	for i := range datas {
		mustRestore(t, repo, fmt.Sprintf("snap-%d", i), datas[i])
	}
}

// TestLoneBackupLatencyWindow: the straggler window is a bounded wait, not
// an unbounded batch hold — a lone Backup with nobody to batch against
// completes after at most a few windows (one per commit layer: trace log
// and catalog), and the window is genuinely active (the backup is not
// faster than a single window).
func TestLoneBackupLatencyWindow(t *testing.T) {
	const window = 75 * time.Millisecond
	ctx := context.Background()
	repo, err := CreateRepository("repo", gcTestOptions(faultio.NewMemFS(), window)...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	data := repoData(5, 64<<10)
	start := time.Now()
	if _, err := repo.Backup(ctx, "lone", bytes.NewReader(data)); err != nil {
		t.Fatalf("backup: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < window {
		t.Errorf("lone backup took %v — group-commit window (%v) appears inactive", elapsed, window)
	}
	if elapsed > 8*window {
		t.Errorf("lone backup delayed %v; must be bounded by a few straggler windows of %v", elapsed, window)
	}
	mustRestore(t, repo, "lone", data)
}

// TestConcurrentBackupsGroupCommitCrash: the group-commit acknowledgment
// invariant under concurrency — crash the machine at several points while
// N Backups race into shared fsyncs, then check the one-directional crash
// contract: every Backup that acked before the crash is present in the
// durable image and restores byte-identically. (The serial crash-point
// sweep proves this at every op; this test adds genuinely concurrent
// commits sharing group fsyncs.)
func TestConcurrentBackupsGroupCommitCrash(t *testing.T) {
	const n = 4
	ctx := context.Background()
	datas := make([][]byte, n)
	for i := range datas {
		datas[i] = repoData(int64(200+i), 48<<10)
	}

	runBackups := func(m *faultio.MemFS) []error {
		repo, err := CreateRepository("repo", gcTestOptions(m, 2*time.Millisecond)...)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = repo.Backup(ctx, fmt.Sprintf("snap-%d", i), bytes.NewReader(datas[i]))
			}(i)
		}
		wg.Wait()
		repo.Close()
		return errs
	}

	// Clean pass: learn the op-clock span of creation and the backups.
	clean := faultio.NewMemFS()
	cleanCreate := faultio.NewMemFS()
	if r, err := CreateRepository("repo", gcTestOptions(cleanCreate, 0)...); err != nil {
		t.Fatal(err)
	} else {
		r.Close()
	}
	for i, err := range runBackups(clean) {
		if err != nil {
			t.Fatalf("clean backup %d: %v", i, err)
		}
	}
	createOps := cleanCreate.Injector().OpCount()
	totalOps := clean.Injector().OpCount()
	if totalOps <= createOps {
		t.Fatalf("op clock did not advance past creation: create=%d total=%d", createOps, totalOps)
	}

	// Crash at every op of the backup phase. The concurrent op interleaving
	// is not deterministic (the clean span varies by a few ops run to run),
	// so each point is a sample of the one-directional property, not a
	// replay. The sweep covers a fixed span, not the clean pass's, so the
	// subtest names are the same every run; points past a run's last op
	// crash nothing and check that every backup acks and restores.
	const sweepOps = 64
	if span := totalOps - createOps; span > sweepOps {
		t.Fatalf("backup phase took %d ops; the crash sweep covers only %d", span, sweepOps)
	}
	for k := createOps + 1; k <= createOps+sweepOps; k++ {
		t.Run(fmt.Sprintf("crashAtOp%d", k), func(t *testing.T) {
			m := faultio.NewMemFSPlan(faultio.Plan{Seed: 9, CrashAtOp: k})
			errs := runBackups(m)

			img := m.CrashImage()
			reopened, err := OpenRepository("repo", gcTestOptions(img, 0)...)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer reopened.Close()
			present := map[string]bool{}
			for _, s := range reopened.Snapshots() {
				present[s.Name] = true
			}
			acked := 0
			for i, berr := range errs {
				name := fmt.Sprintf("snap-%d", i)
				if berr == nil {
					acked++
					if !present[name] {
						t.Errorf("backup %q acked before crash but is missing from the durable image", name)
						continue
					}
					mustRestore(t, reopened, name, datas[i])
				}
			}
			if err := reopened.Verify(ctx); err != nil {
				t.Errorf("verify after crash: %v", err)
			}
			t.Logf("crash at op %d/%d: %d/%d backups acked, all durable", k, totalOps, acked, n)
		})
	}
}
