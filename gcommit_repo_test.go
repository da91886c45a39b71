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

// Repository-level properties of group-commit durability: there is no
// batching knob, only absorption — a commit that arrives while an fsync
// is in flight rides the next round. So concurrent Backups share fsyncs
// on every commit layer (container seal pass, trace log, catalog), a
// lone Backup pays exactly one round per layer and never waits, and
// under crash injection an acknowledged Backup is always covered by a
// completed fsync — even when that fsync was a shared group commit.

func gcTestOptions(fs FileSystem) []RepositoryOption {
	var key Key
	copy(key[:], "group commit key")
	return []RepositoryOption{
		WithFileSystem(fs), WithRepositoryKey(key),
		WithShards(2), WithContainerBytes(16 << 10),
		WithUploadObserver(nil),
	}
}

// TestGroupCommitBatchesSyncs: N concurrent Backups against a slow disk
// must share durability rounds by absorption alone — strictly fewer seal
// passes, catalog fsyncs and trace-log fsyncs than backups — while every
// backup still acks and restores. The backups' first catalog fsync waits
// until every backup has appended its catalog record, so the catalog's
// commits overlap whatever the scheduling; the wait is bounded, so a
// batcher that holds the appends back behind that fsync fails the test
// instead of hanging it.
func TestGroupCommitBatchesSyncs(t *testing.T) {
	const n = 8
	ctx := context.Background()
	cfs := newCountingFS(faultio.NewMemFS())
	cfs.syncDelay = 5 * time.Millisecond
	repo, err := CreateRepository("repo", gcTestOptions(cfs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	preSeal := repo.store.SealSyncs()
	preCat := cfs.count("catalog.fdr")
	preTrace := cfs.count("traces.fdt")
	preCatWrites := cfs.writeCount("catalog.fdr")
	var gated sync.Once
	cfs.gate = func(base string) {
		if base != "catalog.fdr" {
			return
		}
		gated.Do(func() {
			deadline := time.Now().Add(10 * time.Second)
			for cfs.writeCount("catalog.fdr")-preCatWrites < n {
				if time.Now().After(deadline) {
					t.Errorf("the first catalog fsync waited 10s for %d catalog appends, saw %d",
						n, cfs.writeCount("catalog.fdr")-preCatWrites)
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}

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

	for _, layer := range []struct {
		name string
		d    int
	}{
		{"seal passes", int(repo.store.SealSyncs() - preSeal)},
		{"catalog fsyncs", cfs.count("catalog.fdr") - preCat},
		{"trace-log fsyncs", cfs.count("traces.fdt") - preTrace},
	} {
		if layer.d >= n {
			t.Errorf("%s not batched: %d for %d concurrent backups", layer.name, layer.d, n)
		} else {
			t.Logf("%s: %d for %d concurrent backups", layer.name, layer.d, n)
		}
	}
	for i := range datas {
		mustRestore(t, repo, fmt.Sprintf("snap-%d", i), datas[i])
	}
}

// TestLoneBackupOneSyncPerLayer: with nobody to batch against, a Backup
// leads exactly one round on each commit layer — one seal pass, one
// trace-log fsync, one catalog fsync — and is not held back waiting for
// company.
func TestLoneBackupOneSyncPerLayer(t *testing.T) {
	ctx := context.Background()
	cfs := newCountingFS(faultio.NewMemFS())
	repo, err := CreateRepository("repo", gcTestOptions(cfs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	preSeal := repo.store.SealSyncs()
	preCat := cfs.count("catalog.fdr")
	preTrace := cfs.count("traces.fdt")
	data := repoData(5, 64<<10)
	if _, err := repo.Backup(ctx, "lone", bytes.NewReader(data)); err != nil {
		t.Fatalf("backup: %v", err)
	}
	seal := repo.store.SealSyncs() - preSeal
	cat := cfs.count("catalog.fdr") - preCat
	trace := cfs.count("traces.fdt") - preTrace
	if seal != 1 || cat != 1 || trace != 1 {
		t.Errorf("lone backup ran %d seal passes, %d catalog and %d trace-log fsyncs; want 1 each", seal, cat, trace)
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
		// A 2 ms fsync keeps a round in flight long enough for the other
		// Backups to be absorbed into the next one.
		slow := newCountingFS(m)
		slow.syncDelay = 2 * time.Millisecond
		repo, err := CreateRepository("repo", gcTestOptions(slow)...)
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
	if r, err := CreateRepository("repo", gcTestOptions(cleanCreate)...); err != nil {
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
	// crash nothing and check that every backup acks and restores. The
	// span covers the index flush at Close too (79–83 ops measured; the
	// four backups run one after another take 62 before it).
	const sweepOps = 96
	if span := totalOps - createOps; span > sweepOps {
		t.Fatalf("backup phase took %d ops; the crash sweep covers only %d", span, sweepOps)
	}
	for k := createOps + 1; k <= createOps+sweepOps; k++ {
		t.Run(fmt.Sprintf("crashAtOp%d", k), func(t *testing.T) {
			m := faultio.NewMemFSPlan(faultio.Plan{Seed: 9, CrashAtOp: k})
			errs := runBackups(m)

			img := m.CrashImage()
			reopened, err := OpenRepository("repo", gcTestOptions(img)...)
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
