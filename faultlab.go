package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/faultio"
)

// This file is the crash-point explorer: a scripted repository workload
// run on the deterministic in-memory fault filesystem (faultio.MemFS),
// crashed at every interesting point, reopened from the durable crash
// image, and checked against the durability contract. The explorer is
// exported so the CLI smoke stage and the full `make faults` sweep drive
// the same harness the tests do.
//
// The invariants checked after every simulated crash:
//
//  1. The repository reopens cleanly (torn tails are recovered, never
//     fatal).
//  2. The snapshot list equals exactly the acknowledged state: every
//     snapshot whose Backup returned nil (and whose Delete did not) is
//     present; nothing else is.
//  3. Every acknowledged snapshot restores byte-identically.
//  4. Verify passes: the store never holds wrong bytes silently.
//  5. Reference counts survived the crash: a GC pass reclaims only
//     garbage, after which every snapshot still restores byte-identically.
//  6. Every acknowledged snapshot has a committed adversary trace.
//  7. The reopened repository takes new backups (the probe backup
//     round-trips).
//  8. No pooled buffer leaks across the whole crash-and-recover cycle.

// CrashScenario parameterizes the scripted workload: a few backups with
// deduplication overlap, a delete, a GC pass (container compaction), and
// a final tapped backup. All data is derived from Seed, so a scenario is
// a pure function of its parameters — the determinism the sweep depends
// on.
type CrashScenario struct {
	// Seed drives the scenario's data generation and the fault plan.
	Seed int64
	// SnapshotBytes is the base snapshot's size (96 KiB if zero).
	SnapshotBytes int
	// ContainerBytes is the store's container capacity (8 KiB if zero,
	// so the scenario spans many containers).
	ContainerBytes int
	// Shards is the store's shard count (2 if zero).
	Shards int
	// GearChunking switches the scenario's backups to AlgoGear chunking,
	// covering the gear format's pooled-buffer and recipe paths under
	// crash injection.
	GearChunking bool
	// PersistentIndex gives the scenario's fingerprint index a
	// deliberately tiny 4-entry memtable and backs up one more distinct
	// snapshot before the delete, so crash points land inside run
	// flushes and a level-0 merge during the backups, and the GC rebuilds
	// an index holding a merged run — not only in the index flush at
	// Close and the GC layout-change marker protocol that every scenario
	// crosses.
	PersistentIndex bool
	// Defended runs the scenario under the paper's combined defence:
	// MinHash encryption with a local deriver plus scrambling seeded from
	// Seed, so the operation sequence stays deterministic. At the default
	// SnapshotBytes each snapshot is one segment: one key, one shuffle.
	Defended bool
}

func (sc CrashScenario) withDefaults() CrashScenario {
	if sc.SnapshotBytes == 0 {
		sc.SnapshotBytes = 96 << 10
	}
	if sc.ContainerBytes == 0 {
		sc.ContainerBytes = 8 << 10
	}
	if sc.Shards == 0 {
		sc.Shards = 2
	}
	return sc
}

// crashData generates deterministic pseudo-random scenario data.
func crashData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// crashExpect is the durable contract accumulated while the scenario
// runs: exactly what must be true of the crash image.
type crashExpect struct {
	// created is set once CreateRepository returned nil: from then on the
	// repository must reopen from any crash image.
	created bool
	// live maps acknowledged, undeleted snapshot names to their exact
	// bytes.
	live map[string][]byte
	// ackedEver lists every snapshot whose Backup was acknowledged,
	// deleted later or not — each must have a committed adversary trace.
	ackedEver []string
}

func (sc CrashScenario) repoKey() Key {
	var key Key
	copy(key[:], "crash explorer key")
	return key
}

func (sc CrashScenario) repoOptions(m *faultio.MemFS) []RepositoryOption {
	opts := []RepositoryOption{
		WithFileSystem(m),
		WithRepositoryKey(sc.repoKey()),
		WithShards(sc.Shards),
		WithContainerBytes(sc.ContainerBytes),
		WithWorkers(2),
		WithUploadObserver(nil), // durable adversary tap on
	}
	if sc.GearChunking {
		p := DefaultChunkingParams()
		p.Algorithm = AlgoGear
		opts = append(opts, WithChunking(p))
	}
	if sc.PersistentIndex {
		opts = append(opts, WithIndexTuning(IndexTuning{
			MemtableEntries: 4,
			CacheBytes:      1 << 20,
		}))
	}
	if sc.Defended {
		opts = append(opts,
			WithEncryption(EncMinHash),
			WithKeyDeriver(NewLocalDeriver([]byte("crash explorer secret"))),
			WithScramble(sc.Seed|1)) // odd, so never the random-seed zero
	}
	return opts
}

// run drives the scripted workload against m until completion or the
// first error (normally the plan's crash). The returned expectation
// reflects only acknowledged operations, whatever the error.
func (sc CrashScenario) run(m *faultio.MemFS) (*crashExpect, error) {
	sc = sc.withDefaults()
	ctx := context.Background()
	expect := &crashExpect{live: make(map[string][]byte)}

	base := crashData(sc.Seed, sc.SnapshotBytes)
	edited := append([]byte(nil), base...)
	copy(edited[len(edited)/2:], crashData(sc.Seed+1, sc.SnapshotBytes/8))
	distinct := crashData(sc.Seed+2, sc.SnapshotBytes/2)
	final := crashData(sc.Seed+3, sc.SnapshotBytes/3)

	repo, err := CreateRepository("repo", sc.repoOptions(m)...)
	if err != nil {
		return expect, err
	}
	defer repo.Close()
	expect.created = true

	backup := func(name string, data []byte) error {
		if _, err := repo.Backup(ctx, name, bytes.NewReader(data)); err != nil {
			return err
		}
		expect.live[name] = data
		expect.ackedEver = append(expect.ackedEver, name)
		return nil
	}
	// Three backups with real dedup overlap, so containers are shared
	// across snapshots and the delete+GC below compacts shared storage.
	if err := backup("snap-base", base); err != nil {
		return expect, err
	}
	if err := backup("snap-edit", edited); err != nil {
		return expect, err
	}
	if err := backup("snap-distinct", distinct); err != nil {
		return expect, err
	}
	if sc.PersistentIndex {
		// At the default sizes this backup's flush is one shard's fourth
		// level-0 run, so a merge commits before the GC below
		// (TestCrashScenarioMerges holds Seed 5 to it).
		if err := backup("snap-more", crashData(sc.Seed+5, sc.SnapshotBytes/2)); err != nil {
			return expect, err
		}
	}
	// Delete one snapshot; its durable effect must survive a crash the
	// moment Delete acknowledges.
	if err := repo.Delete(ctx, "snap-edit"); err != nil {
		return expect, err
	}
	delete(expect.live, "snap-edit")
	// GC compacts the containers the deleted snapshot referenced — the
	// shard-rewrite crash window.
	if _, err := repo.GC(ctx); err != nil {
		return expect, err
	}
	// A final tapped backup after the compaction.
	if err := backup("snap-final", final); err != nil {
		return expect, err
	}
	if err := repo.Close(); err != nil {
		return expect, err
	}
	return expect, nil
}

// verify opens the crash image and checks every invariant against the
// expectation. A nil return means the image honors the durability
// contract.
func (sc CrashScenario) verify(img *faultio.MemFS, expect *crashExpect) error {
	sc = sc.withDefaults()
	ctx := context.Background()
	repo, err := OpenRepository("repo", sc.repoOptions(img)...)
	if err != nil {
		if !expect.created {
			// The crash predates a completed create; a missing or partial
			// repository is acceptable as long as nothing was acknowledged.
			return nil
		}
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer repo.Close()

	// (2) The snapshot list is exactly the acknowledged state.
	listed := make(map[string]bool)
	for _, s := range repo.Snapshots() {
		listed[s.Name] = true
		if _, ok := expect.live[s.Name]; !ok {
			return fmt.Errorf("unacknowledged snapshot %q survived the crash", s.Name)
		}
	}
	for name := range expect.live {
		if !listed[name] {
			return fmt.Errorf("acknowledged snapshot %q missing after crash", name)
		}
	}

	// (3) Byte-identical restores; (4) Verify holds.
	restoreAll := func(stage string) error {
		for name, want := range expect.live {
			var out bytes.Buffer
			if err := repo.Restore(ctx, name, &out); err != nil {
				return fmt.Errorf("%s: restore %q: %w", stage, name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				return fmt.Errorf("%s: snapshot %q restored different bytes", stage, name)
			}
		}
		return nil
	}
	if err := restoreAll("post-crash"); err != nil {
		return err
	}
	if err := repo.Verify(ctx); err != nil {
		return fmt.Errorf("verify after crash: %w", err)
	}

	// (6) Every acknowledged backup has a committed adversary trace.
	if len(expect.ackedEver) > 0 {
		tl := repo.TraceLog()
		if tl == nil {
			return errors.New("trace log missing after crash")
		}
		traced := make(map[string]bool)
		for _, bt := range tl.Backups() {
			traced[bt.Label] = true
		}
		for _, name := range expect.ackedEver {
			if !traced[name] {
				return fmt.Errorf("acknowledged snapshot %q has no committed trace", name)
			}
		}
	}

	// (5) Refcounts survived: GC reclaims only garbage.
	if _, err := repo.GC(ctx); err != nil {
		return fmt.Errorf("gc after crash: %w", err)
	}
	if err := restoreAll("post-gc"); err != nil {
		return err
	}

	// (7) The repository is writable again.
	probe := crashData(sc.Seed+4, 32<<10)
	if _, err := repo.Backup(ctx, "recovery-probe", bytes.NewReader(probe)); err != nil {
		return fmt.Errorf("probe backup after crash: %w", err)
	}
	var out bytes.Buffer
	if err := repo.Restore(ctx, "recovery-probe", &out); err != nil {
		return fmt.Errorf("probe restore after crash: %w", err)
	}
	if !bytes.Equal(out.Bytes(), probe) {
		return errors.New("probe backup restored different bytes after crash")
	}
	return repo.Close()
}

// CrashSweepOptions selects which crash points a sweep explores.
type CrashSweepOptions struct {
	// Scenario is the workload; its Seed also seeds the fault plans.
	Scenario CrashScenario
	// SyncPointsOnly restricts the sweep to acknowledged-sync boundaries
	// (each sync point is explored twice: the sync failing, and the crash
	// landing right after the acknowledgment) instead of every mutating
	// operation. Sync points are where durability is promised, so this is
	// the high-value bounded sweep CI runs.
	SyncPointsOnly bool
	// Stride explores every Stride-th crash point (1 or 0 = all).
	Stride int
	// MaxPoints caps the number of points explored (0 = no cap); points
	// are sampled evenly when the cap bites.
	MaxPoints int
}

// CrashFailure is one crash point at which an invariant did not hold.
type CrashFailure struct {
	// Op is the mutating-operation number the machine crashed at.
	Op int64
	// Err describes the violated invariant.
	Err error
}

// CrashSweepResult reports a sweep.
type CrashSweepResult struct {
	// TotalOps is the scenario's mutating-operation count (the crash
	// clock's range).
	TotalOps int64
	// SyncPoints are the op numbers of acknowledged syncs in the clean
	// run.
	SyncPoints []int64
	// PointsTested lists the crash points explored, ascending.
	PointsTested []int64
	// Failures lists every point that violated an invariant; an empty
	// list is a passing sweep.
	Failures []CrashFailure
}

// ExploreCrashPoints runs the scenario once cleanly to map its mutating
// operations and sync points, then re-runs it crashing at each selected
// point, reopening the durable crash image and checking the full
// invariant set (see the file comment). The whole sweep is a
// deterministic function of the scenario: same parameters, same ops,
// same faults, same verdicts.
func ExploreCrashPoints(opts CrashSweepOptions) (CrashSweepResult, error) {
	sc := opts.Scenario.withDefaults()
	var res CrashSweepResult

	// Clean pass: the scenario itself must hold fault-free, and its op
	// count bounds the sweep.
	clean := faultio.NewMemFSPlan(faultio.Plan{Seed: sc.Seed})
	expect, err := sc.run(clean)
	if err != nil {
		return res, fmt.Errorf("clean scenario run failed: %w", err)
	}
	if err := sc.verify(clean.CrashImage(), expect); err != nil {
		return res, fmt.Errorf("clean scenario image failed verification: %w", err)
	}
	res.TotalOps = clean.Injector().OpCount()
	res.SyncPoints = clean.Injector().SyncPoints()

	var points []int64
	if opts.SyncPointsOnly {
		seen := make(map[int64]bool)
		for _, s := range res.SyncPoints {
			// Crash AT the sync (the fsync itself dies) and right AFTER it
			// (the ack is the last thing that happened).
			for _, p := range []int64{s, s + 1} {
				if p >= 1 && p <= res.TotalOps && !seen[p] {
					seen[p] = true
					points = append(points, p)
				}
			}
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	} else {
		stride := int64(opts.Stride)
		if stride < 1 {
			stride = 1
		}
		for p := int64(1); p <= res.TotalOps; p += stride {
			points = append(points, p)
		}
	}
	if opts.MaxPoints > 0 && len(points) > opts.MaxPoints {
		sampled := make([]int64, 0, opts.MaxPoints)
		for i := 0; i < opts.MaxPoints; i++ {
			sampled = append(sampled, points[i*len(points)/opts.MaxPoints])
		}
		points = sampled
	}

	for _, p := range points {
		res.PointsTested = append(res.PointsTested, p)
		if err := sc.explorePoint(p); err != nil {
			res.Failures = append(res.Failures, CrashFailure{Op: p, Err: err})
		}
	}
	return res, nil
}

// explorePoint runs one crash-and-recover cycle and checks the pooled
// buffers drained on top of the image invariants.
func (sc CrashScenario) explorePoint(p int64) error {
	base := bufpool.Outstanding()

	m := faultio.NewMemFSPlan(faultio.Plan{Seed: sc.Seed, CrashAtOp: p})
	expect, runErr := sc.run(m)
	if runErr != nil && !errors.Is(runErr, faultio.ErrCrashed) {
		// The crash may surface wrapped in layer-specific errors; anything
		// not carrying ErrCrashed is a scenario bug, not a crash.
		return fmt.Errorf("scenario failed without crashing: %w", runErr)
	}
	if err := sc.verify(m.CrashImage(), expect); err != nil {
		return err
	}
	// (8) Pooled buffers all came home, crashed pipelines included; a
	// crashed backup's producer may still be handing its last ones back.
	if got := bufpool.Settle(base, 5*time.Second); got != base {
		return fmt.Errorf("%d pooled buffers (%d bytes) leaked", got.Bufs-base.Bufs, got.Bytes-base.Bytes)
	}
	return nil
}
