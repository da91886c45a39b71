package defense

import (
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

func TestScrambleOnlyPreservesFrequenciesAndDedup(t *testing.T) {
	b := synthetic(t).Backups[0]
	enc, err := Encrypt(b, SchemeScrambleOnly, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Frequency distribution fully preserved: the mapping is per-chunk
	// deterministic, so the ciphertext multiset mirrors the plaintext one.
	pf := b.Frequencies()
	cf := enc.Backup.Frequencies()
	if len(pf) != len(cf) {
		t.Fatal("scramble-only changed the number of unique chunks")
	}
	for cfp, n := range cf {
		if pf[enc.Truth[cfp]] != n {
			t.Fatal("scramble-only perturbed a frequency")
		}
	}
	// ... but order is disturbed.
	mle := EncryptMLE(b)
	var moved int
	for i := range enc.Backup.Chunks {
		if enc.Truth[enc.Backup.Chunks[i].FP] != mle.Truth[mle.Backup.Chunks[i].FP] {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(b.Chunks)); frac < 0.3 {
		t.Fatalf("scramble-only moved only %.2f of chunks", frac)
	}
}

func TestScrambleOnlyNoStorageCost(t *testing.T) {
	d := synthetic(t)
	mle, err := StorageSavings(d, SchemeMLE, 1)
	if err != nil {
		t.Fatal(err)
	}
	so, err := StorageSavings(d, SchemeScrambleOnly, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := len(mle) - 1
	if diff := mle[last] - so[last]; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("scramble-only changed storage saving by %v; must be free", diff)
	}
}

func TestScrambleOnlySuppressesLocalityNotBasic(t *testing.T) {
	d := synthetic(t)
	aux := d.Backups[len(d.Backups)-2]
	target := d.Backups[len(d.Backups)-1]

	mle := EncryptMLE(target)
	so, err := Encrypt(target, SchemeScrambleOnly, 11)
	if err != nil {
		t.Fatal(err)
	}

	cfg := attack.DefaultConfig()
	cfg.W = 50000
	mleRate := inferenceRate(t, attack.NewLocality(cfg), mle, aux)
	soRate := inferenceRate(t, attack.NewLocality(cfg), so, aux)
	if mleRate < 0.02 {
		t.Skipf("baseline too weak on this reduced dataset: %.4f", mleRate)
	}
	if soRate > mleRate/2 {
		t.Fatalf("scrambling alone should hurt the locality attack: MLE %.4f vs scramble-only %.4f",
			mleRate, soRate)
	}

	// The basic attack sees identical frequency distributions either way.
	basicMLE := inferenceRate(t, attack.NewBasic(attack.Config{}), mle, aux)
	basicSO := inferenceRate(t, attack.NewBasic(attack.Config{}), so, aux)
	if diff := basicMLE - basicSO; diff > 0.01 || diff < -0.01 {
		t.Fatalf("scramble-only should not change the basic attack much: %.4f vs %.4f", basicMLE, basicSO)
	}
}

func TestRCEEquivalentToMLEForTheAdversary(t *testing.T) {
	d := synthetic(t)
	aux := d.Backups[len(d.Backups)-2]
	target := d.Backups[len(d.Backups)-1]

	mle := EncryptMLE(target)
	rce := EncryptRCE(target)

	// Tag namespace differs from MLE's ciphertext namespace...
	if mle.Backup.Chunks[0].FP == rce.Backup.Chunks[0].FP {
		t.Fatal("RCE tags should not collide with MLE ciphertext fingerprints")
	}
	// ...but the attack results are identical: same frequencies, same
	// neighbor structure, same sizes.
	cfg := attack.DefaultConfig()
	mleRate := inferenceRate(t, attack.NewLocality(cfg), mle, aux)
	rceRate := inferenceRate(t, attack.NewLocality(cfg), rce, aux)
	if mleRate != rceRate {
		t.Fatalf("RCE tags must leak exactly like MLE: %.4f vs %.4f", mleRate, rceRate)
	}
}

func TestRCEStreamStructure(t *testing.T) {
	b := &trace.Backup{Label: "b", Chunks: []trace.ChunkRef{
		{FP: fphash.FromUint64(1), Size: 100},
		{FP: fphash.FromUint64(2), Size: 200},
		{FP: fphash.FromUint64(1), Size: 100},
	}}
	enc := EncryptRCE(b)
	if len(enc.Backup.Chunks) != 3 {
		t.Fatal("RCE changed chunk count")
	}
	if enc.Backup.Chunks[0].FP != enc.Backup.Chunks[2].FP {
		t.Fatal("duplicate chunks must share a deterministic tag")
	}
	if enc.Backup.Chunks[0].FP == enc.Backup.Chunks[1].FP {
		t.Fatal("distinct chunks must have distinct tags")
	}
	if enc.Backup.Chunks[1].Size != 200 {
		t.Fatal("RCE changed a size")
	}
}

func TestSchemeStringsForAblations(t *testing.T) {
	if SchemeScrambleOnly.String() != "ScrambleOnly" || SchemeRCE.String() != "RCE" {
		t.Fatal("ablation scheme strings wrong")
	}
}
