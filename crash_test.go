package freqdedup

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"testing"

	"freqdedup/internal/faultio"
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
// fingerprint index's memtable cut to 4 entries, so crash points land
// inside run flushes and a merge during the backups, not only in the
// index flush at Close and the GC layout-change marker protocol
// (TestCrashScenarioMerges checks that a merge commits). The invariant
// set is unchanged: whatever the index files say after a crash, every
// acknowledged snapshot must list, restore byte-identically, and survive
// a GC — the containers are the index's write-ahead log, so no index
// state is ever load-bearing for durability.
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

// TestCrashScenarioMerges holds the persistent-index scenario to its
// claim that its sweeps crash inside a compaction: at least one merge
// commits. The scenario is crashed right after each of its sync points
// until a crash image holds a shard manifest (doc.go's version-2 layout)
// that lists a run on level 1 or above, which only a merge writes.
func TestCrashScenarioMerges(t *testing.T) {
	sc := CrashScenario{Seed: 5, PersistentIndex: true}
	clean := faultio.NewMemFSPlan(faultio.Plan{Seed: sc.Seed})
	if _, err := sc.run(clean); err != nil {
		t.Fatal(err)
	}
	for _, p := range clean.Injector().SyncPoints() {
		m := faultio.NewMemFSPlan(faultio.Plan{Seed: sc.Seed, CrashAtOp: p + 1})
		sc.run(m) // fails with the crash
		img := m.CrashImage()
		names, err := img.Glob("repo/" + IndexDirName + "/shard-*.mf")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := img.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, st.Size())
			_, err = f.ReadAt(data, 0)
			f.Close()
			if err != nil || len(data) < 36 {
				t.Fatalf("%s: %d bytes, %v", name, len(data), err)
			}
			runs := int(binary.LittleEndian.Uint32(data[12:]))
			for i := 0; i < runs && 32+20*i+20 <= len(data); i++ {
				if level := binary.LittleEndian.Uint32(data[32+20*i+8:]); level >= 1 {
					t.Logf("%s lists a level-%d run after sync point %d", name, level, p)
					return
				}
			}
		}
	}
	t.Fatal("no crash image lists a merged run: the persistent-index sweep never crashes inside a compaction")
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

// TestCrashClockPinned pins the crash clock of every sweep scenario: its
// mutating-operation count and the op numbers of its acknowledged syncs,
// recorded when Store.Sync still sealed the shards one Seal at a time.
// The seal pass now overlaps its fsyncs on the real disk; on
// faultio.MemFS, whose syncs are ordered, it must still perform exactly
// those operations in exactly that order, so a sweep explores the same
// crash images. The last scenario is the one whose seal pass crosses 16
// shards; the sweeps above run 2. CreateRepository's own count is pinned
// too: shard creation overlaps its header fsyncs the same way.
func TestCrashClockPinned(t *testing.T) {
	cases := []struct {
		name       string
		sc         CrashScenario
		ops        int64
		syncPoints int
		sum        string // syncPointsSum of the sync points
	}{
		{"seed1", CrashScenario{Seed: 1}, 182, 63, "be99c3462737e830"},
		{"gear", CrashScenario{Seed: 3, GearChunking: true}, 188, 64, "2bbbc9e0c4f06ddc"},
		{"pindex", CrashScenario{Seed: 5, PersistentIndex: true}, 286, 85, "4f6a6f5ba3a58f64"},
		{"defended", CrashScenario{Seed: 9, Defended: true}, 178, 63, "3d95d6f5d47d99cb"},
		{"16shards", CrashScenario{Seed: 1, Shards: 16, ContainerBytes: 4 << 20, SnapshotBytes: 1 << 20}, 745, 240, "cccae90502f26eb1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ExploreCrashPoints(CrashSweepOptions{Scenario: tc.sc, SyncPointsOnly: true, MaxPoints: 1})
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			for _, f := range res.Failures {
				t.Errorf("crash at op %d/%d: %v", f.Op, res.TotalOps, f.Err)
			}
			got := syncPointsSum(res.SyncPoints)
			if res.TotalOps != tc.ops || len(res.SyncPoints) != tc.syncPoints || got != tc.sum {
				t.Errorf("crash clock moved: %d ops / %d sync points (sum %s), pinned %d / %d (sum %s)",
					res.TotalOps, len(res.SyncPoints), got, tc.ops, tc.syncPoints, tc.sum)
			}
		})
	}
	t.Run("create", func(t *testing.T) {
		m := faultio.NewMemFS()
		repo, err := CreateRepository("repo", CrashScenario{Seed: 1}.withDefaults().repoOptions(m)...)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Injector().OpCount(); got != 15 {
			t.Errorf("CreateRepository took %d crash-clock ops, pinned 15", got)
		}
		repo.Close()
	})
}

// syncPointsSum is a short SHA-256 of a sync-point list, which pins the
// list without spelling it out.
func syncPointsSum(points []int64) string {
	h := sha256.New()
	for _, p := range points {
		fmt.Fprintf(h, "%d,", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
