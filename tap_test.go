package freqdedup

// End-to-end acceptance of the adversary tap: a file-backed repository
// created with WithUploadObserver records every Backup's post-encryption
// upload stream in traces.fdt; after a close and a reopen the replayed
// traces drive the streaming attack engine, and the paper's qualitative
// ordering holds — the locality attack infers a nonzero fraction of the
// stream under baseline MLE and strictly less under MinHash+scrambling.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/trace"
)

// tapWorkload builds three versions of a backed-up byte stream with the
// structure the attacks exploit: whole-file duplication (a hot head of
// heavily repeated files plus singly stored files) and cross-version
// stability (each version edits a few files and appends new ones, leaving
// the rest byte-identical in place).
func tapWorkload() [][]byte {
	rng := rand.New(rand.NewSource(7))
	file := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	files := make([][]byte, 40)
	for i := range files {
		files[i] = file(16<<10 + rng.Intn(32<<10))
	}
	// Hot head: file 0 copied 16x, file 1 8x, file 2 4x, file 3 2x —
	// geometric separation keeps frequency ranks stable across versions.
	var order []int
	for i, copies := range []int{16, 8, 4, 2} {
		for c := 0; c < copies; c++ {
			order = append(order, i)
		}
	}
	for i := 4; i < len(files); i++ {
		order = append(order, i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	concat := func() []byte {
		var buf bytes.Buffer
		for _, idx := range order {
			buf.Write(files[idx])
		}
		return buf.Bytes()
	}

	var versions [][]byte
	versions = append(versions, concat())
	for v := 1; v < 3; v++ {
		// Clustered churn: rewrite three cold files, append two new ones.
		for i := 0; i < 3; i++ {
			idx := 4 + rng.Intn(len(files)-4)
			files[idx] = file(len(files[idx]))
		}
		for i := 0; i < 2; i++ {
			files = append(files, file(16<<10+rng.Intn(16<<10)))
			order = append(order, len(files)-1)
		}
		versions = append(versions, concat())
	}
	return versions
}

func TestTapEndToEndAttack(t *testing.T) {
	dir := t.TempDir()
	repo, err := CreateRepository(dir, WithUploadObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"mon", "tue", "wed"}
	for i, data := range tapWorkload() {
		if _, err := repo.Backup(ctx, names[i], bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold: the taps must replay from traces.fdt alone, without
	// the option being passed again.
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
	if len(taps) != 3 {
		t.Fatalf("replayed %d taps, want 3", len(taps))
	}
	for i, tap := range taps {
		if tap.Label != names[i] {
			t.Fatalf("tap %d labeled %q, want %q", i, tap.Label, names[i])
		}
		if tap.Chunks == 0 {
			t.Fatalf("tap %q is empty", tap.Label)
		}
	}

	// The repository encrypts convergently: its tapped ciphertext stream
	// is a deterministic 1-1 relabeling of the plaintext chunk stream,
	// preserving frequencies, sizes, and locality. Treating the replayed
	// taps as the fingerprint streams, simulate the paper's schemes on
	// the latest backup and attack each with the auxiliary prior tap —
	// the Section 7 methodology on real storage-stack traffic.
	aux, err := taps[0].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	target, err := taps[2].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got := target.UniqueCount(); got < 40 {
		t.Fatalf("target tap has only %d unique chunks — workload too small to attack", got)
	}

	// Score each scheme with the locality attack in known-plaintext mode
	// at a 2% leakage rate — the paper's Figure 10 methodology (real CDC
	// streams chunk repeated files into tied-frequency interior chunks,
	// so ciphertext-only rank seeding is exactly as unreliable as the
	// paper says classical frequency analysis is; leaked seeds isolate
	// what the defenses actually defend: the locality walk).
	const leakRate = 0.02
	cfg := attack.Config{U: 1, V: 15, W: 200000, Mode: attack.KnownPlaintext}
	rate := func(scheme defense.Scheme) (float64, defense.Encrypted) {
		enc, err := defense.Encrypt(target, scheme, 11)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Leaked = attack.SampleLeaked(enc.Backup, enc.Truth, leakRate, 42)
		res, err := attack.NewLocality(c).Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return res.InferenceRate(enc.Truth), enc
	}

	mle, encMLE := rate(defense.SchemeMLE)
	combined, _ := rate(defense.SchemeCombined)
	if mle <= 0 {
		t.Fatalf("locality attack against baseline MLE inferred nothing (rate %v)", mle)
	}
	if mle <= 2*leakRate {
		t.Fatalf("locality attack against MLE never expanded past its leaked seeds (rate %v)", mle)
	}
	if combined >= mle {
		t.Fatalf("MinHash+scramble rate %v not strictly below MLE rate %v — paper ordering violated", combined, mle)
	}
	t.Logf("inference rates on replayed taps: MLE %.2f%%, MinHash+scramble %.2f%%", mle*100, combined*100)

	// The streaming path must agree with the materialized one: run the
	// same attack straight off the .fdt source for the auxiliary side.
	c := cfg
	c.Leaked = attack.SampleLeaked(encMLE.Backup, encMLE.Truth, leakRate, 42)
	direct, err := attack.NewLocality(c).Run(attack.BackupSource(encMLE.Backup), taps[0], attack.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := direct.InferenceRate(encMLE.Truth); got != mle {
		t.Fatalf("attack over the streaming .fdt source scored %v, materialized scored %v", got, mle)
	}
}

// TestTapObserverForwarding checks a caller-supplied observer sees the
// same stream the trace log commits, and that a memory repository taps
// in memory.
func TestTapObserverForwarding(t *testing.T) {
	var seen []ChunkRef
	obs := observerFunc(func(refs []trace.ChunkRef) error {
		seen = append(seen, refs...)
		return nil
	})
	repo, err := CreateRepository("", WithUploadObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	data := repoData(3, 512<<10)
	if _, err := repo.Backup(context.Background(), "one", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	log := repo.TraceLog()
	if log == nil {
		t.Fatal("memory repository has no trace log")
	}
	taps := log.Backups()
	if len(taps) != 1 {
		t.Fatalf("%d taps, want 1", len(taps))
	}
	b, err := taps[0].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Chunks) != len(seen) {
		t.Fatalf("observer saw %d chunks, trace log committed %d", len(seen), len(b.Chunks))
	}
	for i := range seen {
		if seen[i] != b.Chunks[i] {
			t.Fatalf("chunk %d: observer saw %v, log committed %v", i, seen[i], b.Chunks[i])
		}
	}
}

// TestTapFailedBackupLeavesNoTrace checks an aborted backup commits no
// trace.
func TestTapFailedBackupLeavesNoTrace(t *testing.T) {
	repo, err := CreateRepository("", WithUploadObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repo.Backup(ctx, "doomed", bytes.NewReader(repoData(4, 1<<20))); err == nil {
		t.Fatal("cancelled backup must fail")
	}
	if got := len(repo.TraceLog().Backups()); got != 0 {
		t.Fatalf("failed backup committed %d traces, want 0", got)
	}
	// A successful retry taps normally.
	if _, err := repo.Backup(context.Background(), "ok", bytes.NewReader(repoData(4, 1<<20))); err != nil {
		t.Fatal(err)
	}
	if got := len(repo.TraceLog().Backups()); got != 1 {
		t.Fatalf("%d traces after successful backup, want 1", got)
	}
}

// observerFunc adapts a function to UploadObserver.
type observerFunc func(refs []trace.ChunkRef) error

func (f observerFunc) ObserveUpload(refs []trace.ChunkRef) error { return f(refs) }
