package freqdedup_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"freqdedup"
)

// attackRate runs a with aux as the auxiliary backup and scores it
// against truth.
func attackRate(t *testing.T, a freqdedup.Attack, target, aux *freqdedup.Backup, truth freqdedup.GroundTruth) float64 {
	t.Helper()
	res, err := a.Run(freqdedup.BackupAttackSource(target), freqdedup.BackupAttackSource(aux), freqdedup.AttackParams{})
	if err != nil {
		t.Fatal(err)
	}
	return res.InferenceRate(truth)
}

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// TestByteLevelEndToEndAttack ties every layer together without the trace
// simulation: two versions of real byte data are chunked with real
// content-defined chunking and encrypted with real AES-based convergent
// encryption; the adversary sees only ciphertext fingerprints of the new
// version plus plaintext fingerprints of the old version, and the
// locality-based attack still recovers most of the mapping.
func TestByteLevelEndToEndAttack(t *testing.T) {
	// Version 1 (the auxiliary info) and version 2 (the target) share most
	// content; v2 has a clustered edit plus an appended tail. A hot block
	// recurs throughout (real data has popular content — the
	// ciphertext-only seed needs a stable frequency head).
	// 12 recurrences keeps every junction within the attack's v=15 window.
	hot := randBytes(9, 24<<10)
	var v1 []byte
	for i := int64(0); i < 12; i++ {
		v1 = append(v1, randBytes(100+i, 160<<10)...)
		v1 = append(v1, hot...)
	}
	v2 := append(append([]byte(nil), v1...), randBytes(2, 64<<10)...)
	copy(v2[512<<10:], randBytes(3, 16<<10))

	chunksOf := func(data []byte) []freqdedup.Chunk {
		c, err := freqdedup.NewContentDefinedChunker(bytes.NewReader(data), freqdedup.DefaultChunkingParams())
		if err != nil {
			t.Fatal(err)
		}
		var out []freqdedup.Chunk
		for {
			ch, err := c.Next()
			if err != nil {
				break
			}
			out = append(out, ch)
		}
		return out
	}

	// The auxiliary information: plaintext chunk stream of version 1.
	aux := &freqdedup.Backup{Label: "v1"}
	for _, ch := range chunksOf(v1) {
		aux.Chunks = append(aux.Chunks, freqdedup.ChunkRef{FP: ch.Fingerprint, Size: uint32(ch.Size())})
	}

	// The target: version 2, convergently encrypted chunk by chunk. The
	// adversary observes ciphertext fingerprints; ground truth maps them
	// back to the plaintext fingerprints.
	target := &freqdedup.Backup{Label: "v2"}
	truth := make(freqdedup.GroundTruth)
	for _, ch := range chunksOf(v2) {
		key := freqdedup.ConvergentKey(ch.Data)
		ct := freqdedup.EncryptDeterministic(key, ch.Data)
		cfp := freqdedup.FingerprintOf(ct)
		target.Chunks = append(target.Chunks, freqdedup.ChunkRef{FP: cfp, Size: uint32(len(ct))})
		truth[cfp] = ch.Fingerprint
	}

	rate := attackRate(t, freqdedup.NewLocalityAttack(freqdedup.DefaultAttackConfig()), target, aux, truth)
	if rate < 0.5 {
		t.Fatalf("byte-level locality attack inferred only %.1f%% of the target", rate*100)
	}

	basic := attackRate(t, freqdedup.NewBasicAttack(freqdedup.AttackConfig{}), target, aux, truth)
	if basic >= rate {
		t.Fatalf("basic attack (%.3f) should not beat the locality attack (%.3f)", basic, rate)
	}
}

// TestFacadeDefensePipeline exercises the trace-level defense API through
// the facade: encrypt a backup under each scheme and verify the attack
// ordering MLE > MinHash > Combined.
func TestFacadeDefensePipeline(t *testing.T) {
	d, err := freqdedup.GenerateWorkload("synthetic", freqdedup.WorkloadConfig{Seed: 1, Backups: 5, TotalBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	aux := d.Backups[len(d.Backups)-2]
	target := d.Backups[len(d.Backups)-1]

	rates := make(map[freqdedup.DefenseScheme]float64)
	for _, scheme := range []freqdedup.DefenseScheme{
		freqdedup.SchemeMLE, freqdedup.SchemeMinHash, freqdedup.SchemeCombined,
	} {
		enc, err := freqdedup.EncryptWithScheme(target, scheme, 7)
		if err != nil {
			t.Fatal(err)
		}
		leaked := freqdedup.SampleLeaked(enc.Backup, enc.Truth, 0.002, 1)
		cfg := freqdedup.AttackConfig{
			U: 1, V: 15, W: 500000,
			Mode:   freqdedup.KnownPlaintext,
			Leaked: leaked,
		}
		rates[scheme] = attackRate(t, freqdedup.NewLocalityAttack(cfg), enc.Backup, aux, enc.Truth)
	}
	if rates[freqdedup.SchemeMLE] < 0.05 {
		t.Fatalf("undefended baseline too weak for a meaningful test: %.3f", rates[freqdedup.SchemeMLE])
	}
	if rates[freqdedup.SchemeCombined] > rates[freqdedup.SchemeMLE]/4 {
		t.Fatalf("combined defense ineffective: %.4f vs MLE %.4f",
			rates[freqdedup.SchemeCombined], rates[freqdedup.SchemeMLE])
	}
}

// TestFacadeKeyManagerRoundTrip runs server-aided MLE through the facade's
// network key manager, driving the byte-level pipeline through the
// Repository front door.
func TestFacadeKeyManagerRoundTrip(t *testing.T) {
	var token [32]byte
	copy(token[:], "integration token")
	srv, err := freqdedup.NewKeyServer(freqdedup.KeyServerConfig{
		Secret: []byte("integration secret"),
		Token:  token,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	client, err := freqdedup.DialKeyManager(ln.Addr().String(), token)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	repo, err := freqdedup.CreateRepository("",
		freqdedup.WithEncryption(freqdedup.EncServerAided),
		freqdedup.WithKeyDeriver(client),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	data := randBytes(5, 512<<10)
	if _, err := repo.Backup(ctx, "net-backup", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := repo.Restore(ctx, "net-backup", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through network key manager failed")
	}
}

// ExampleNewBasicAttack demonstrates classical frequency analysis on a toy
// stream (the paper's Figure 3 setting).
func ExampleNewBasicAttack() {
	fp := func(b byte) freqdedup.Fingerprint { return freqdedup.FingerprintOf([]byte{b}) }
	mk := func(ids ...byte) *freqdedup.Backup {
		b := &freqdedup.Backup{}
		for _, id := range ids {
			b.Chunks = append(b.Chunks, freqdedup.ChunkRef{FP: fp(id), Size: 4096})
		}
		return b
	}
	// M and C have matching frequency distributions; the top-frequency
	// chunk pairs correctly.
	m := mk(1, 2, 1, 2, 3, 4, 2, 3, 4)
	c := mk(11, 12, 15, 12, 11, 12, 13, 14, 12, 13, 14, 14)
	res, err := freqdedup.NewBasicAttack(freqdedup.AttackConfig{}).Run(
		freqdedup.BackupAttackSource(c), freqdedup.BackupAttackSource(m), freqdedup.AttackParams{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Pairs) > 0 && res.Pairs[0].C == fp(12) && res.Pairs[0].M == fp(2))
	// Output: true
}
