package attack_test

// The golden-equivalence suite: the streaming engine must reproduce, bit
// for bit, what the materialized-slice reference engine it replaced
// produced on the FSL, VM, and synthetic generator traces, for all three
// attacks in both modes.
// This is the contract that lets the rest of the system run on the
// streaming engine without re-validating a single figure.
//
// The reference engine is gone; its outputs stay, recorded in goldenTable
// from internal/core at commit 4aafda9 (core.BasicAttack and
// core.LocalityAttackWithStats on exactly the inputs read below, passed
// through summarize). A change that moves a row changes every figure: it
// needs a reason, not a re-record.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/vfs"
)

// goldenDatasets reads the inputs goldenTable was recorded on: reduced
// FSL (2 users × 2 MiB), synthetic (3 MiB, 4 snapshots) and VM (3
// students × 1 MiB, 4 weeks) datasets from the dataset generators of the
// time, frozen as trace files so the rows stay comparable as the
// generators evolve.
func goldenDatasets(t *testing.T) []*trace.Dataset {
	t.Helper()
	var out []*trace.Dataset
	for _, name := range []string{"fsl", "synthetic", "vm"} {
		d, err := tracelog.ReadDataset(vfs.OS, filepath.Join("testdata", "golden-"+name+".fdt"))
		if err != nil {
			t.Fatal(err)
		}
		d.Name = name
		out = append(out, d)
	}
	return out
}

// goldenOut is one attack run's recorded output: the pair count, a SHA-256
// over the pairs (C then M fingerprint bytes, in the order Run returns
// them — sorted by C for the locality attacks, rank order for basic), the
// run stats, and the correct and unique counts whose quotient is the
// inference rate, kept as integers so they compare exactly.
type goldenOut struct {
	pairs   int
	sha256  string
	stats   attack.Stats
	correct int
	unique  int
}

func summarize(res attack.Result, truth attack.GroundTruth) goldenOut {
	h := sha256.New()
	correct := 0
	for _, p := range res.Pairs {
		h.Write(p.C[:])
		h.Write(p.M[:])
		if truth[p.C] == p.M {
			correct++
		}
	}
	return goldenOut{len(res.Pairs), hex.EncodeToString(h.Sum(nil)), res.Stats, correct, res.UniqueTarget}
}

// goldenTable holds the reference engine's outputs, one row per dataset ×
// attack × mode of TestGoldenEquivalence. The reference basic attack
// reported no stats; its rows hold what a basic Run reports, Inferred =
// the pair count.
var goldenTable = []struct {
	dataset, attack string
	mode            attack.Mode
	want            goldenOut
}{
	{"fsl", "basic", attack.CiphertextOnly, goldenOut{574, "a539261e7ad91c39b1058927b4971aa186c10762dd92fb72b8a7b18c3c2cfd68", attack.Stats{Inferred: 574}, 0, 806}},
	{"fsl", "locality", attack.CiphertextOnly, goldenOut{206, "e6f342f1f8f114501c8c2ff40308f207a0a08a33828b53f82375529833a80cfb", attack.Stats{Seeds: 2, Iterations: 206, PeakQueue: 5, Inferred: 206}, 0, 806}},
	{"fsl", "advanced", attack.CiphertextOnly, goldenOut{199, "e6aca12af1dd65c137dfa8cbac1a505dca4ffaf297e35fc959f94651f31a5ea6", attack.Stats{Seeds: 58, Iterations: 199, PeakQueue: 58, Inferred: 199}, 150, 806}},
	{"fsl", "basic", attack.KnownPlaintext, goldenOut{574, "a539261e7ad91c39b1058927b4971aa186c10762dd92fb72b8a7b18c3c2cfd68", attack.Stats{Inferred: 574}, 0, 806}},
	{"fsl", "locality", attack.KnownPlaintext, goldenOut{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", attack.Stats{}, 0, 806}},
	{"fsl", "advanced", attack.KnownPlaintext, goldenOut{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", attack.Stats{}, 0, 806}},
	{"synthetic", "basic", attack.CiphertextOnly, goldenOut{416, "a827da6230e486d59db68bf2635111de0036e45eb73167820afe0e4daeb896b0", attack.Stats{Inferred: 416}, 3, 459}},
	{"synthetic", "locality", attack.CiphertextOnly, goldenOut{416, "21b59f6f4bc88a064f96b8b544f9b0ac5cb98927479d8aca5ad6fe8cf5200ee0", attack.Stats{Seeds: 2, Iterations: 416, PeakQueue: 6, Inferred: 416}, 369, 459}},
	{"synthetic", "advanced", attack.CiphertextOnly, goldenOut{100, "a791a5cf1573ad6d2259ad78be743f753a2852ae96b9b54916b8b5d703462aed", attack.Stats{Seeds: 57, Iterations: 100, PeakQueue: 56, Inferred: 100}, 42, 459}},
	{"synthetic", "basic", attack.KnownPlaintext, goldenOut{416, "a827da6230e486d59db68bf2635111de0036e45eb73167820afe0e4daeb896b0", attack.Stats{Inferred: 416}, 3, 459}},
	{"synthetic", "locality", attack.KnownPlaintext, goldenOut{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", attack.Stats{}, 0, 459}},
	{"synthetic", "advanced", attack.KnownPlaintext, goldenOut{0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", attack.Stats{}, 0, 459}},
	{"vm", "basic", attack.CiphertextOnly, goldenOut{324, "a7eae1a6d8367eac087e1477070ab2588f96c4c8da363a07058b426a98253f44", attack.Stats{Inferred: 324}, 2, 643}},
	{"vm", "locality", attack.CiphertextOnly, goldenOut{461, "7f88c78a0e2bffa6571d04b14da69bde40d059f4ae81341bcbb8cade4757d0d8", attack.Stats{Seeds: 2, Iterations: 461, PeakQueue: 8, Inferred: 461}, 45, 643}},
	{"vm", "advanced", attack.CiphertextOnly, goldenOut{461, "7f88c78a0e2bffa6571d04b14da69bde40d059f4ae81341bcbb8cade4757d0d8", attack.Stats{Seeds: 2, Iterations: 461, PeakQueue: 8, Inferred: 461}, 45, 643}},
	{"vm", "basic", attack.KnownPlaintext, goldenOut{324, "a7eae1a6d8367eac087e1477070ab2588f96c4c8da363a07058b426a98253f44", attack.Stats{Inferred: 324}, 2, 643}},
	{"vm", "locality", attack.KnownPlaintext, goldenOut{461, "84873b96f385b7a24efe3392a8842c399d24f5702ecc6f69e48890143b790e6d", attack.Stats{Seeds: 1, Iterations: 461, PeakQueue: 6, Inferred: 461}, 14, 643}},
	{"vm", "advanced", attack.KnownPlaintext, goldenOut{461, "84873b96f385b7a24efe3392a8842c399d24f5702ecc6f69e48890143b790e6d", attack.Stats{Seeds: 1, Iterations: 461, PeakQueue: 6, Inferred: 461}, 14, 643}},
}

// goldenKPTable holds known-plaintext rows at the benchmark's attack
// parameters (u=1, v=15, w=200,000, 2 % of the target's unique chunks
// leaked, seed 42), one per dataset for each locality attack. goldenTable's
// 0.2 % leak lands no pair whose plaintext is in the auxiliary backup on
// fsl and synthetic, so its known-plaintext rows there are empty walks.
// These rows were recorded from the fingerprint-keyed neighbour-map
// engine at commit 4180fb2, before the neighbour rows became flat
// arrays; the same rule holds as for goldenTable.
var goldenKPTable = []struct {
	dataset, attack string
	want            goldenOut
}{
	{"fsl", "locality", goldenOut{758, "4a7321c81f3533cb3ae2399365e21341aa2abe7fca5aaee0a962a104044112da", attack.Stats{Seeds: 10, Iterations: 758, PeakQueue: 20, Inferred: 758}, 488, 806}},
	{"fsl", "advanced", goldenOut{535, "f72a53fbf6ba30458095b4f1e67996fc6a624d9d05a828d677e47170ee6a761e", attack.Stats{Seeds: 10, Iterations: 535, PeakQueue: 20, Inferred: 535}, 534, 806}},
	{"synthetic", "locality", goldenOut{416, "59fdbb8d883a74030a2c4ebbebb540ef7373fd558507f7a3a74abaed89f0dc4f", attack.Stats{Seeds: 8, Iterations: 416, PeakQueue: 14, Inferred: 416}, 401, 459}},
	{"synthetic", "advanced", goldenOut{402, "b23d82e821ab0b09eaf7f58e8ba7de0e7adf1f037b1cd240b40b3277f885b016", attack.Stats{Seeds: 8, Iterations: 402, PeakQueue: 14, Inferred: 402}, 401, 459}},
	{"vm", "locality", goldenOut{461, "3e5476ba365265ee9b9316ceec52670c98f5dc14c3eb97e702b11d739906e468", attack.Stats{Seeds: 6, Iterations: 461, PeakQueue: 12, Inferred: 461}, 121, 643}},
	{"vm", "advanced", goldenOut{461, "3e5476ba365265ee9b9316ceec52670c98f5dc14c3eb97e702b11d739906e468", attack.Stats{Seeds: 6, Iterations: 461, PeakQueue: 12, Inferred: 461}, 121, 643}},
}

// goldenTies is the reference output of TestGoldenEquivalenceArbitraryTies.
var goldenTies = goldenOut{394, "5afafea1d93c274b4155ed1f264dfd7ec95bc35ed66936e56e88386bf48a0204", attack.Stats{Seeds: 1, Iterations: 394, PeakQueue: 4, Inferred: 394}, 0, 806}

// checkGolden runs a and holds its output to the recorded want.
func checkGolden(t *testing.T, name string, a attack.Attack, enc defense.Encrypted, aux *trace.Backup, want goldenOut) {
	t.Helper()
	res, err := a.Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := summarize(res, enc.Truth); got != want {
		t.Fatalf("%s: got %+v, reference recorded %+v", name, got, want)
	}
	if got, rate := res.InferenceRate(enc.Truth), float64(want.correct)/float64(want.unique); got != rate {
		t.Fatalf("%s: rate %v, reference recorded %d/%d", name, got, want.correct, want.unique)
	}
}

func TestGoldenEquivalence(t *testing.T) {
	for _, d := range goldenDatasets(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			n := len(d.Backups)
			aux := d.Backups[0]
			target := d.Backups[n-1]
			enc := defense.EncryptMLE(target)
			leaked := attack.SampleLeaked(enc.Backup, enc.Truth, 0.002, 42)
			if len(leaked) == 0 {
				t.Fatalf("no leaked pairs drawn — dataset too small for the KP mode test")
			}

			rows := 0
			for _, row := range goldenTable {
				if row.dataset != d.Name {
					continue
				}
				rows++
				cfg := attack.Config{U: 2, V: 5, W: 200, Mode: row.mode}
				if row.mode == attack.KnownPlaintext {
					cfg.Leaked = leaked
				}
				var atk attack.Attack
				for _, a := range attack.Suite(cfg) {
					if a.Name() == row.attack {
						atk = a
					}
				}
				if atk == nil {
					t.Fatalf("no attack named %q", row.attack)
				}
				checkGolden(t, fmt.Sprintf("%s/%s", row.attack, row.mode), atk, enc, aux, row.want)
			}
			if rows != 6 {
				t.Fatalf("%d recorded rows for %s, want 3 attacks × 2 modes", rows, d.Name)
			}

			kp := attack.Config{U: 1, V: 15, W: 200000, Mode: attack.KnownPlaintext,
				Leaked: attack.SampleLeaked(enc.Backup, enc.Truth, 0.02, 42)}
			rows = 0
			for _, row := range goldenKPTable {
				if row.dataset != d.Name {
					continue
				}
				rows++
				atk := attack.NewLocality(kp)
				if row.attack == "advanced" {
					atk = attack.NewAdvanced(kp)
				}
				checkGolden(t, row.attack+"/known-plaintext-2%", atk, enc, aux, row.want)
			}
			if rows != 2 {
				t.Fatalf("%d recorded 2 %% known-plaintext rows for %s, want 2", rows, d.Name)
			}
		})
	}
}

// TestGoldenEquivalenceArbitraryTies covers the tie-breaking ablation
// knob on one dataset.
func TestGoldenEquivalenceArbitraryTies(t *testing.T) {
	d := goldenDatasets(t)[0]
	aux, target := d.Backups[0], d.Backups[len(d.Backups)-1]
	enc := defense.EncryptMLE(target)
	cfg := attack.Config{U: 1, V: 15, W: 1000, ArbitraryTies: true}
	checkGolden(t, "locality/arbitrary-ties", attack.NewLocality(cfg), enc, aux, goldenTies)
}
