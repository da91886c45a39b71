package freqdedup

// End-to-end acceptance of the workload scenario matrix: every registered
// workload generates a dataset, materializes to bytes, backs up into a
// real file-backed repository with the adversary tap, and — after a cold
// reopen — the replayed .fdt traces drive the streaming attack suite. Per
// scenario the paper's qualitative ordering must hold (locality attack
// against baseline MLE infers well past its leaked seeds; MinHash plus
// scrambling strictly reduces it), and the streaming .fdt source must
// score bit-identically to the materialized stream.

import (
	"context"
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
)

func TestScenarioMatrixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const leakRate = 0.02
	for _, name := range Workloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := WorkloadConfig{Seed: 42, Backups: 3, TotalBytes: 2 << 20}
			if name == "vm" {
				// The vm adapter defaults to 20 students; at 2 MiB that
				// leaves ~100 KiB per image and the leaked-seed sample all
				// but misses the cross-week stable backbone. Five students
				// on 4 MiB keeps the test fast and the scale meaningful.
				cfg.TotalBytes = 4 << 20
				cfg.Users = 5
			}
			d, err := GenerateWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			repo, err := CreateRepository(dir, WithUploadObserver(nil))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i, b := range d.Backups {
				snap, err := repo.Backup(ctx, snapshotName(i, b.Label), WorkloadDataReader(b))
				if err != nil {
					t.Fatal(err)
				}
				if snap.LogicalBytes != b.LogicalSize() {
					t.Fatalf("backup %d stored %d logical bytes, generator produced %d",
						i, snap.LogicalBytes, b.LogicalSize())
				}
			}
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}

			// Cold reopen: the adversary view replays from traces.fdt alone.
			reopened, err := OpenRepository(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			log := reopened.TraceLog()
			if log == nil {
				t.Fatal("reopened repository lost its trace log")
			}
			taps := log.Backups()
			if len(taps) != len(d.Backups) {
				t.Fatalf("replayed %d taps, want %d", len(taps), len(d.Backups))
			}

			aux, err := taps[0].Materialize()
			if err != nil {
				t.Fatal(err)
			}
			target, err := taps[len(taps)-1].Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if got := target.UniqueCount(); got < 40 {
				t.Fatalf("target tap has only %d unique chunks — workload too small to attack", got)
			}

			rate := func(scheme defense.Scheme) (float64, defense.Encrypted) {
				enc, err := defense.Encrypt(target, scheme, 11)
				if err != nil {
					t.Fatal(err)
				}
				cfg := attack.Config{U: 1, V: 15, W: 200000, Mode: attack.KnownPlaintext}
				cfg.Leaked = attack.SampleLeaked(enc.Backup, enc.Truth, leakRate, 42)
				// The full suite must run on replayed taps; the locality
				// member scores the scenario.
				suite := attack.Suite(cfg)
				var locality float64
				for _, a := range suite {
					res, err := a.Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
					if err != nil {
						t.Fatalf("%s: %v", a.Name(), err)
					}
					if a.Name() == "locality" {
						locality = res.InferenceRate(enc.Truth)
					}
				}
				return locality, enc
			}

			mle, encMLE := rate(defense.SchemeMLE)
			combined, _ := rate(defense.SchemeCombined)
			if mle <= 2*leakRate {
				t.Fatalf("locality attack against MLE never expanded past its leaked seeds (rate %v)", mle)
			}
			if combined >= mle {
				t.Fatalf("MinHash+scramble rate %v not strictly below MLE rate %v — paper ordering violated", combined, mle)
			}
			t.Logf("MLE %.2f%%, MinHash+scramble %.2f%%", mle*100, combined*100)

			// The streaming .fdt source must agree with the materialized one.
			cfgKP := attack.Config{U: 1, V: 15, W: 200000, Mode: attack.KnownPlaintext}
			cfgKP.Leaked = attack.SampleLeaked(encMLE.Backup, encMLE.Truth, leakRate, 42)
			direct, err := attack.NewLocality(cfgKP).Run(attack.BackupSource(encMLE.Backup), taps[0], attack.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if got := direct.InferenceRate(encMLE.Truth); got != mle {
				t.Fatalf("attack over the streaming .fdt source scored %v, materialized scored %v", got, mle)
			}
		})
	}
}
