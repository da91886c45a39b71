package defense

import (
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
)

// inferenceRate runs a against enc with aux as the auxiliary backup and
// scores it.
func inferenceRate(t *testing.T, a attack.Attack, enc Encrypted, aux *trace.Backup) float64 {
	t.Helper()
	res, err := a.Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return res.InferenceRate(enc.Truth)
}

func synthetic(t *testing.T) *trace.Dataset {
	t.Helper()
	d, err := workload.Generate("synthetic", workload.Config{Seed: 1, Backups: 5, TotalBytes: 6 << 20, MeanObjectBytes: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEncryptMLEDeterministicMapping(t *testing.T) {
	d := synthetic(t)
	b := d.Backups[0]
	enc1 := EncryptMLE(b)
	enc2 := EncryptMLE(b)
	if len(enc1.Backup.Chunks) != len(b.Chunks) {
		t.Fatal("MLE changed chunk count")
	}
	for i := range enc1.Backup.Chunks {
		if enc1.Backup.Chunks[i] != enc2.Backup.Chunks[i] {
			t.Fatal("MLE encryption not deterministic")
		}
		if enc1.Backup.Chunks[i].Size != b.Chunks[i].Size {
			t.Fatal("MLE changed a chunk size")
		}
		if enc1.Backup.Chunks[i].FP == b.Chunks[i].FP {
			t.Fatal("ciphertext fingerprint equals plaintext fingerprint")
		}
	}
}

func TestEncryptMLETruth(t *testing.T) {
	b := synthetic(t).Backups[0]
	enc := EncryptMLE(b)
	for i, c := range enc.Backup.Chunks {
		if enc.Truth[c.FP] != b.Chunks[i].FP {
			t.Fatalf("ground truth wrong at chunk %d", i)
		}
	}
	// One-to-one at the unique-chunk level: same plaintext -> same
	// ciphertext, distinct plaintexts -> distinct ciphertexts.
	fwd := make(map[fphash.Fingerprint]fphash.Fingerprint)
	for i, c := range enc.Backup.Chunks {
		p := b.Chunks[i].FP
		if prev, ok := fwd[p]; ok && prev != c.FP {
			t.Fatal("same plaintext mapped to two ciphertexts under MLE")
		}
		fwd[p] = c.FP
	}
	if len(fwd) != len(enc.Truth) {
		t.Fatal("MLE mapping not injective over unique chunks")
	}
}

func TestEncryptMLEPreservesFrequencies(t *testing.T) {
	// The core leak the paper exploits: MLE preserves the frequency
	// distribution exactly.
	b := synthetic(t).Backups[0]
	enc := EncryptMLE(b)
	pf := b.Frequencies()
	cf := enc.Backup.Frequencies()
	if len(pf) != len(cf) {
		t.Fatal("unique counts differ")
	}
	for cfp, n := range cf {
		if pf[enc.Truth[cfp]] != n {
			t.Fatal("frequency not preserved through MLE")
		}
	}
}

func TestMinHashPreservesMostDedup(t *testing.T) {
	d := synthetic(t)
	opt := DefaultOptions()
	opt.Scramble = false
	a, err := EncryptMinHash(d.Backups[2], opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncryptMinHash(d.Backups[3], opt)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive synthetic snapshots share >90% of plaintext chunks; the
	// ciphertext streams must still share the large majority (Broder), but
	// strictly less than plain MLE would.
	af := a.Backup.Frequencies()
	var shared, total int
	for fp := range b.Backup.Frequencies() {
		total++
		if _, ok := af[fp]; ok {
			shared++
		}
	}
	frac := float64(shared) / float64(total)
	if frac < 0.6 {
		t.Fatalf("MinHash destroyed dedup: cross-backup ciphertext overlap %.2f", frac)
	}
	if frac > 0.999 {
		t.Fatalf("MinHash changed nothing: overlap %.3f", frac)
	}
}

func TestMinHashPerturbsFrequencies(t *testing.T) {
	b := synthetic(t).Backups[0]
	opt := DefaultOptions()
	opt.Scramble = false
	enc, err := EncryptMinHash(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Some plaintext chunks must now map to more than one ciphertext chunk
	// (different segment minima).
	variants := make(map[fphash.Fingerprint]map[fphash.Fingerprint]bool)
	for cfp, pfp := range enc.Truth {
		if variants[pfp] == nil {
			variants[pfp] = make(map[fphash.Fingerprint]bool)
		}
		variants[pfp][cfp] = true
	}
	var split int
	for _, v := range variants {
		if len(v) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("MinHash encryption never split a plaintext chunk; frequency ranking unchanged")
	}
}

func TestScramblePreservesMultiset(t *testing.T) {
	b := synthetic(t).Backups[0]
	enc, err := EncryptMinHash(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Under scrambling + MinHash, the plaintext multiset recovered through
	// ground truth must match the original backup's multiset exactly.
	got := make(map[fphash.Fingerprint]int)
	for _, c := range enc.Backup.Chunks {
		got[enc.Truth[c.FP]]++
	}
	want := b.Frequencies()
	if len(got) != len(want) {
		t.Fatalf("unique plaintexts %d, want %d", len(got), len(want))
	}
	for fp, n := range want {
		if got[fp] != n {
			t.Fatal("scrambling lost or duplicated chunks")
		}
	}
}

func TestScrambleChangesOrder(t *testing.T) {
	b := synthetic(t).Backups[0]
	opt := DefaultOptions()
	plain, err := EncryptMinHash(b, Options{Segments: opt.Segments, Scramble: false})
	if err != nil {
		t.Fatal(err)
	}
	scrambled, err := EncryptMinHash(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Backup.Chunks) != len(scrambled.Backup.Chunks) {
		t.Fatal("scrambling changed chunk count")
	}
	var moved int
	for i := range plain.Backup.Chunks {
		if plain.Truth[plain.Backup.Chunks[i].FP] != scrambled.Truth[scrambled.Backup.Chunks[i].FP] {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(plain.Backup.Chunks)); frac < 0.3 {
		t.Fatalf("scrambling moved only %.2f of chunks", frac)
	}
}

func TestCombinedDefeatsLocalityAttack(t *testing.T) {
	d := synthetic(t)
	aux := d.Backups[len(d.Backups)-2]
	target := d.Backups[len(d.Backups)-1]

	cfg := attack.DefaultConfig()
	cfg.W = 50000

	mleRate := inferenceRate(t, attack.NewLocality(cfg), EncryptMLE(target), aux)

	comb, err := Encrypt(target, SchemeCombined, 99)
	if err != nil {
		t.Fatal(err)
	}
	combRate := inferenceRate(t, attack.NewLocality(cfg), comb, aux)

	if mleRate < 0.02 {
		t.Fatalf("MLE baseline inference rate %.4f too low for a meaningful comparison", mleRate)
	}
	if combRate > mleRate/4 {
		t.Fatalf("combined defense ineffective: MLE %.4f vs combined %.4f", mleRate, combRate)
	}
}

func TestStorageSavingsShape(t *testing.T) {
	d := synthetic(t)
	mleSav, err := StorageSavings(d, SchemeMLE, 1)
	if err != nil {
		t.Fatal(err)
	}
	combSav, err := StorageSavings(d, SchemeCombined, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mleSav) != len(d.Backups) || len(combSav) != len(d.Backups) {
		t.Fatal("savings length mismatch")
	}
	last := len(mleSav) - 1
	if mleSav[last] < 0.5 {
		t.Fatalf("MLE final saving %.2f too low for synthetic chain", mleSav[last])
	}
	if combSav[last] > mleSav[last] {
		t.Fatal("combined scheme cannot save more than exact dedup")
	}
	if mleSav[last]-combSav[last] > 0.10 {
		t.Fatalf("combined scheme lost too much saving: MLE %.3f vs combined %.3f",
			mleSav[last], combSav[last])
	}
}

func TestEncryptUnknownScheme(t *testing.T) {
	if _, err := Encrypt(&trace.Backup{}, Scheme(42), 1); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeMLE.String() != "MLE" || SchemeMinHash.String() != "MinHash" || SchemeCombined.String() != "Combined" {
		t.Fatal("scheme strings wrong")
	}
	if Scheme(9).String() == "" {
		t.Fatal("unknown scheme should still print")
	}
}

func TestEncryptMinHashBadParams(t *testing.T) {
	b := synthetic(t).Backups[0]
	opt := DefaultOptions()
	opt.Segments.MinBytes = -1
	if _, err := EncryptMinHash(b, opt); err == nil {
		t.Fatal("invalid segment params should error")
	}
}
