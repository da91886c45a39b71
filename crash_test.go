package freqdedup

import (
	"os"
	"reflect"
	"testing"
)

// TestCrashSweepSyncPoints is the CI-bounded crash-point sweep: the
// scripted scenario (backups with dedup overlap → delete → GC/compaction
// → tapped backup) is crashed at every acknowledged-sync boundary, the
// durable image reopened, and the full invariant set checked. Run under
// -race this is also the recovery path's concurrency proof.
func TestCrashSweepSyncPoints(t *testing.T) {
	maxPoints := 24
	if testing.Short() {
		maxPoints = 8
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario:       CrashScenario{Seed: 1},
		SyncPointsOnly: true,
		MaxPoints:      maxPoints,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.TotalOps == 0 || len(res.SyncPoints) == 0 || len(res.PointsTested) == 0 {
		t.Fatalf("sweep explored nothing: %+v", res)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept %d sync-point crashes across %d mutating ops", len(res.PointsTested), res.TotalOps)
}

// TestCrashSweepGear reruns the sync-point sweep with gear chunking, so
// the gear format's pooled-buffer and recipe paths are crashed at every
// acknowledged-sync boundary too. The invariant set is unchanged.
func TestCrashSweepGear(t *testing.T) {
	maxPoints := 24
	if testing.Short() {
		maxPoints = 8
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario:       CrashScenario{Seed: 3, GearChunking: true},
		SyncPointsOnly: true,
		MaxPoints:      maxPoints,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.TotalOps == 0 || len(res.SyncPoints) == 0 || len(res.PointsTested) == 0 {
		t.Fatalf("sweep explored nothing: %+v", res)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept %d gear sync-point crashes across %d mutating ops", len(res.PointsTested), res.TotalOps)
}

// TestCrashSweepPersistentIndex reruns the sync-point sweep with the
// bloom-fronted on-disk fingerprint index and a tiny memtable, so crash
// points land inside run flushes, compactions, and the GC layout-change
// marker protocol. The invariant set is unchanged: whatever the index
// files say after a crash, every acknowledged snapshot must list,
// restore byte-identically, and survive a GC — the containers are the
// index's write-ahead log, so no index state is ever load-bearing for
// durability.
func TestCrashSweepPersistentIndex(t *testing.T) {
	maxPoints := 24
	if testing.Short() {
		maxPoints = 8
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario: CrashScenario{
			Seed:            5,
			PersistentIndex: true,
		},
		SyncPointsOnly: true,
		MaxPoints:      maxPoints,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.TotalOps == 0 || len(res.SyncPoints) == 0 || len(res.PointsTested) == 0 {
		t.Fatalf("sweep explored nothing: %+v", res)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept %d persistent-index sync-point crashes across %d mutating ops", len(res.PointsTested), res.TotalOps)
}

// TestCrashSweepDefended reruns the sync-point sweep with MinHash
// encryption and scrambling on. The invariant set is unchanged: recipes
// carry per-chunk keys, so whatever order the scrambled uploads reached
// the containers in before the crash, every acknowledged snapshot must
// list, restore byte-identically, keep its committed adversary trace, and
// survive a GC.
func TestCrashSweepDefended(t *testing.T) {
	maxPoints := 24
	if testing.Short() {
		maxPoints = 8
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario:       CrashScenario{Seed: 9, Defended: true},
		SyncPointsOnly: true,
		MaxPoints:      maxPoints,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.TotalOps == 0 || len(res.SyncPoints) == 0 || len(res.PointsTested) == 0 {
		t.Fatalf("sweep explored nothing: %+v", res)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept %d defended sync-point crashes across %d mutating ops", len(res.PointsTested), res.TotalOps)
}

// TestCrashSweepFull explores EVERY mutating operation as a crash point —
// minutes of work, so it only runs when FAULTS_FULL is set (`make
// faults`).
func TestCrashSweepFull(t *testing.T) {
	if os.Getenv("FAULTS_FULL") == "" {
		t.Skip("set FAULTS_FULL=1 (or run `make faults`) for the exhaustive crash sweep")
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario: CrashScenario{Seed: 1},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept all %d mutating ops (%d sync points)", res.TotalOps, len(res.SyncPoints))
}

// TestCrashSweepFullGear is the exhaustive sweep on gear chunking —
// every mutating op is a crash point. Gated like TestCrashSweepFull.
func TestCrashSweepFullGear(t *testing.T) {
	if os.Getenv("FAULTS_FULL") == "" {
		t.Skip("set FAULTS_FULL=1 (or run `make faults`) for the exhaustive crash sweep")
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario: CrashScenario{Seed: 3, GearChunking: true},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept all %d mutating ops on gear chunking (%d sync points)", res.TotalOps, len(res.SyncPoints))
}

// TestCrashSweepFullPersistentIndex is the exhaustive sweep on the
// persistent fingerprint index: every mutating op — including the fsyncs
// inside run seals, manifest commits, compaction installs, and the GC
// rebuild-marker protocol — is a crash point. Gated like
// TestCrashSweepFull.
func TestCrashSweepFullPersistentIndex(t *testing.T) {
	if os.Getenv("FAULTS_FULL") == "" {
		t.Skip("set FAULTS_FULL=1 (or run `make faults`) for the exhaustive crash sweep")
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario: CrashScenario{
			Seed:            5,
			PersistentIndex: true,
		},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept all %d mutating ops on the persistent index (%d sync points)", res.TotalOps, len(res.SyncPoints))
}

// TestCrashSweepFullDefended is the exhaustive sweep under the paper's
// combined defence. Gated like TestCrashSweepFull.
func TestCrashSweepFullDefended(t *testing.T) {
	if os.Getenv("FAULTS_FULL") == "" {
		t.Skip("set FAULTS_FULL=1 (or run `make faults`) for the exhaustive crash sweep")
	}
	res, err := ExploreCrashPoints(CrashSweepOptions{
		Scenario: CrashScenario{Seed: 9, Defended: true},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
	}
	t.Logf("swept all %d mutating ops under the defence (%d sync points)", res.TotalOps, len(res.SyncPoints))
}

// TestCrashSoak runs the exhaustive sweep over scenario seeds 1..50, so
// the scripted backup/delete/GC/backup run crashes at every mutating op
// under fifty different data streams and dedup overlaps. A failure names
// the seed and op that replay it. Gated like TestCrashSweepFull; its name
// stays outside `make faults`' TestCrashSweep pattern because the nightly
// soak runs it on its own.
func TestCrashSoak(t *testing.T) {
	if os.Getenv("FAULTS_FULL") == "" {
		t.Skip("set FAULTS_FULL=1 for the 50-seed crash soak")
	}
	var points int
	for seed := int64(1); seed <= 50; seed++ {
		res, err := ExploreCrashPoints(CrashSweepOptions{
			Scenario: CrashScenario{Seed: seed},
		})
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		for _, f := range res.Failures {
			t.Errorf("seed %d: crash at op %d/%d: %v", seed, f.Op, res.TotalOps, f.Err)
		}
		points += len(res.PointsTested)
	}
	t.Logf("swept %d crash points across 50 scenario seeds", points)
}

// TestCrashSweepDeterministic: the same scenario seed maps to the same
// op count and sync points — the property the whole sweep's
// reproducibility rests on.
func TestCrashSweepDeterministic(t *testing.T) {
	probe := func() (int64, []int64) {
		res, err := ExploreCrashPoints(CrashSweepOptions{
			Scenario:       CrashScenario{Seed: 7},
			SyncPointsOnly: true,
			MaxPoints:      1,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res.TotalOps, res.SyncPoints
	}
	ops1, sp1 := probe()
	ops2, sp2 := probe()
	if ops1 != ops2 || !reflect.DeepEqual(sp1, sp2) {
		t.Fatalf("scenario not deterministic: ops %d vs %d, sync points %v vs %v", ops1, ops2, sp1, sp2)
	}
}
