package attack

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

func fp(v uint64) fphash.Fingerprint { return fphash.FromUint64(v) }

func stream(label string, size uint32, ids ...uint64) *trace.Backup {
	b := &trace.Backup{Label: label}
	for _, id := range ids {
		b.Chunks = append(b.Chunks, trace.ChunkRef{FP: fp(id), Size: size})
	}
	return b
}

// paperExample reproduces the worked example of Figure 3:
//
//	M = <M1, M2, M1, M2, M3, M4, M2, M3, M4>
//	C = <C1, C2, C5, C2, C1, C2, C3, C4, C2, C3, C4, C4>
//
// with ground truth Ci <-> Mi for i = 1..4 and C5 new. Ciphertext IDs are
// 1..5, plaintext IDs are 101..104.
func paperExample() (c, m *trace.Backup, truth GroundTruth) {
	m = stream("prior", 4096, 101, 102, 101, 102, 103, 104, 102, 103, 104)
	c = stream("latest", 4096, 1, 2, 5, 2, 1, 2, 3, 4, 2, 3, 4, 4)
	truth = GroundTruth{
		fp(1): fp(101), fp(2): fp(102), fp(3): fp(103), fp(4): fp(104),
		// fp(5) encrypts a plaintext chunk absent from M.
		fp(5): fp(999),
	}
	return c, m, truth
}

func mustRun(t *testing.T, a Attack, c, m *trace.Backup, p Params) Result {
	t.Helper()
	res, err := a.Run(BackupSource(c), BackupSource(m), p)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return res
}

// TestLocalityAttackPaperExample: in the paper's walk-through C1..C4 are
// inferred correctly and C5 is not inferable, because its plaintext does
// not appear in M.
func TestLocalityAttackPaperExample(t *testing.T) {
	c, m, truth := paperExample()
	res := mustRun(t, NewLocality(Config{U: 1, V: 1, W: 0}), c, m, Params{})
	inferred := make(map[fphash.Fingerprint]fphash.Fingerprint)
	for _, p := range res.Pairs {
		inferred[p.C] = p.M
	}
	for i := uint64(1); i <= 4; i++ {
		if inferred[fp(i)] != truth[fp(i)] {
			t.Errorf("C%d inferred as %v, want M%d", i, inferred[fp(i)], i)
		}
	}
	if got, ok := inferred[fp(5)]; ok && got == truth[fp(5)] {
		t.Error("C5 must not be correctly inferable (plaintext not in M)")
	}
	if rate := res.InferenceRate(truth); rate != 0.8 {
		t.Errorf("inference rate = %.2f, want 0.80 (4 of 5 unique chunks)", rate)
	}
	if res.UniqueTarget != 5 {
		t.Errorf("UniqueTarget = %d, want 5", res.UniqueTarget)
	}
}

// TestLocalityAttackPaperExampleCiphertextOnly: a ciphertext-only attack
// seeds by frequency analysis alone, so a (wrong) leaked pair changes
// nothing, while the known-plaintext attack seeds with it.
func TestLocalityAttackPaperExampleCiphertextOnly(t *testing.T) {
	c, m, _ := paperExample()
	cfg := Config{U: 1, V: 1, Mode: CiphertextOnly}
	want := mustRun(t, NewLocality(cfg), c, m, Params{})
	cfg.Leaked = []Pair{{C: fp(1), M: fp(102)}}
	got := mustRun(t, NewLocality(cfg), c, m, Params{})
	if !pairsEqual(got.Pairs, want.Pairs) || got.Stats != want.Stats {
		t.Errorf("leaked pairs changed a ciphertext-only run: %v %+v, want %v %+v", got.Pairs, got.Stats, want.Pairs, want.Stats)
	}
	cfg.Mode = KnownPlaintext
	kp := mustRun(t, NewLocality(cfg), c, m, Params{})
	if !slices.Contains(kp.Pairs, cfg.Leaked[0]) {
		t.Errorf("known-plaintext pairs %v lack the leaked seed %v", kp.Pairs, cfg.Leaked[0])
	}
}

// TestBasicWeakerThanLocality: on a locality-rich backup series, following
// neighbours from a few seeds recovers more than rank-for-rank matching.
func TestBasicWeakerThanLocality(t *testing.T) {
	ds := testStreams(t)
	truth := identityTruth(ds)
	basic := mustRun(t, NewBasic(Config{}), ds.c, ds.m, Params{}).InferenceRate(truth)
	loc := mustRun(t, NewLocality(DefaultConfig()), ds.c, ds.m, Params{}).InferenceRate(truth)
	if basic >= loc {
		t.Fatalf("basic (%.2f) should be weaker than locality (%.2f)", basic, loc)
	}
}

func TestBasicAttackWeakOnPaperExample(t *testing.T) {
	c, m, truth := paperExample()
	res := mustRun(t, NewBasic(Config{}), c, m, Params{})
	loc := mustRun(t, NewLocality(Config{U: 1, V: 1}), c, m, Params{}).InferenceRate(truth)
	if basic := res.InferenceRate(truth); basic >= loc {
		t.Fatalf("basic attack (%.2f) should be weaker than locality attack (%.2f)", basic, loc)
	}
	// The top-frequency pair (C2, M2) is matched even by the basic attack.
	if len(res.Pairs) == 0 || res.Pairs[0] != (Pair{C: fp(2), M: fp(102)}) {
		t.Fatalf("top-frequency pair = %v, want (C2, M2)", res.Pairs)
	}
}

// TestBasicAttackPairsUnique: rank-for-rank matching pairs each chunk at
// most once and stops at min(|F_C|, |F_M|), on streams with many
// frequency ties.
func TestBasicAttackPairsUnique(t *testing.T) {
	ds := testStreams(t)
	res := mustRun(t, NewBasic(Config{}), ds.c, ds.m, Params{})
	seenC := make(map[fphash.Fingerprint]bool)
	seenM := make(map[fphash.Fingerprint]bool)
	for _, p := range res.Pairs {
		if seenC[p.C] || seenM[p.M] {
			t.Fatal("basic attack repeated a chunk in its matching")
		}
		seenC[p.C], seenM[p.M] = true, true
	}
	uniqueM := make(map[fphash.Fingerprint]bool)
	for _, ch := range ds.m.Chunks {
		uniqueM[ch.FP] = true
	}
	if want := min(res.UniqueTarget, len(uniqueM)); len(res.Pairs) != want {
		t.Fatalf("got %d pairs, want min(%d, %d) = %d", len(res.Pairs), res.UniqueTarget, len(uniqueM), want)
	}
}

// TestLocalityAttackDeterministic: an Attack value keeps no state between
// runs, so running it again gives the same output, for every attack.
func TestLocalityAttackDeterministic(t *testing.T) {
	ds := testStreams(t)
	for _, a := range Suite(DefaultConfig()) {
		first := mustRun(t, a, ds.c, ds.m, Params{})
		again := mustRun(t, a, ds.c, ds.m, Params{})
		if !pairsEqual(first.Pairs, again.Pairs) || first.Stats != again.Stats || first.UniqueTarget != again.UniqueTarget {
			t.Fatalf("%s: second run differs: %d pairs %+v, first %d pairs %+v",
				a.Name(), len(again.Pairs), again.Stats, len(first.Pairs), first.Stats)
		}
	}
}

// TestPaperExample pins every attack configuration's whole output on the
// Figure 3 example — pairs in the order Run returns them, stats, and rate —
// each row naming the property the numbers show.
func TestPaperExample(t *testing.T) {
	c, m, truth := paperExample()
	unbounded := Config{U: 1, V: 1}
	bounded := unbounded
	bounded.W = 1
	foreign := unbounded
	foreign.Mode = KnownPlaintext
	foreign.Leaked = []Pair{
		{C: fp(777), M: fp(102)}, // C not in stream
		{C: fp(2), M: fp(888)},   // M not in aux
	}
	cases := []struct {
		name  string
		atk   Attack
		pairs [][2]uint64 // (C, M) IDs
		stats Stats
		rate  float64
	}{
		// Rank-for-rank matching: min(|F_C|, |F_M|) = 4 pairs, no chunk
		// repeated on either side, and the top-frequency pair (C2, M2)
		// first and correct; ties (C1/C3, M1/M3/M4) go by fingerprint.
		{"basic", NewBasic(Config{}), [][2]uint64{{2, 102}, {4, 101}, {1, 103}, {3, 104}},
			Stats{Inferred: 4}, 0.2},
		// One seed (u=1), every pair popped once, nothing dropped by the
		// unbounded queue.
		{"locality", NewLocality(unbounded), [][2]uint64{{1, 101}, {2, 102}, {3, 103}, {4, 104}},
			Stats{Seeds: 1, Iterations: 4, PeakQueue: 2, Inferred: 4}, 0.8},
		// The paper's defaults: each ciphertext chunk is inferred once, even
		// where two share a plaintext guess (C4, C5 -> M4).
		{"locality-default", NewLocality(DefaultConfig()), [][2]uint64{{1, 101}, {2, 102}, {3, 103}, {4, 104}, {5, 104}},
			Stats{Seeds: 1, Iterations: 5, PeakQueue: 3, Inferred: 5}, 0.8},
		// w=1 throttles propagation — a pair dropped, fewer inferred than
		// unbounded, the queue never above w+1 — and keeps the seed.
		{"locality-w1", NewLocality(bounded), [][2]uint64{{1, 101}, {2, 102}, {3, 103}},
			Stats{Seeds: 1, Iterations: 2, PeakQueue: 1, DroppedByW: 1, Inferred: 3}, 0.6},
		// Leaked pairs whose chunks are not in both streams seed nothing.
		{"known-plaintext-foreign-leaks", NewLocality(foreign), nil, Stats{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.atk, c, m, Params{})
			want := make([]Pair, len(tc.pairs))
			for i, p := range tc.pairs {
				want[i] = Pair{C: fp(p[0]), M: fp(p[1])}
			}
			if !pairsEqual(res.Pairs, want) {
				t.Errorf("pairs %v, want %v", res.Pairs, want)
			}
			if res.Stats != tc.stats {
				t.Errorf("stats %+v, want %+v", res.Stats, tc.stats)
			}
			if rate := res.InferenceRate(truth); rate != tc.rate {
				t.Errorf("rate %v, want %v", rate, tc.rate)
			}
		})
	}
}

// TestKnownPlaintextSeeding: without any frequency skew, ciphertext-only
// seeding can fail; leaked pairs must still drive inference. Two identical
// chains of all-distinct chunks (every frequency 1), one correct leaked
// pair mid-stream.
func TestKnownPlaintextSeeding(t *testing.T) {
	ids := make([]uint64, 50)
	mids := make([]uint64, 50)
	for i := range ids {
		ids[i] = uint64(i + 1)
		mids[i] = uint64(i + 1001)
	}
	c := stream("latest", 4096, ids...)
	m := stream("prior", 4096, mids...)
	truth := make(GroundTruth)
	for i := range ids {
		truth[fp(ids[i])] = fp(mids[i])
	}
	cfg := Config{U: 1, V: 5, Mode: KnownPlaintext, Leaked: []Pair{{C: fp(25), M: fp(1025)}}}
	if rate := mustRun(t, NewLocality(cfg), c, m, Params{}).InferenceRate(truth); rate < 0.95 {
		t.Fatalf("known-plaintext on identical chains inferred only %.2f", rate)
	}
}

// TestAdvancedAttackUsesSizes: two chunks with equal frequencies but
// different sizes — plain frequency analysis can confuse them (a tie), the
// size-aware variant cannot.
//
//	C stream: A A B B  (A size 1000, B size 2000)
//	M stream: a a b b  (a size 1000, b size 2000)
func TestAdvancedAttackUsesSizes(t *testing.T) {
	c := &trace.Backup{Label: "c", Chunks: []trace.ChunkRef{
		{FP: fp(1), Size: 1000}, {FP: fp(1), Size: 1000},
		{FP: fp(2), Size: 2000}, {FP: fp(2), Size: 2000},
	}}
	m := &trace.Backup{Label: "m", Chunks: []trace.ChunkRef{
		{FP: fp(101), Size: 1000}, {FP: fp(101), Size: 1000},
		{FP: fp(102), Size: 2000}, {FP: fp(102), Size: 2000},
	}}
	truth := GroundTruth{fp(1): fp(101), fp(2): fp(102)}
	if rate := mustRun(t, NewAdvanced(Config{U: 2, V: 2}), c, m, Params{}).InferenceRate(truth); rate != 1.0 {
		t.Fatalf("size-aware attack rate = %.2f, want 1.0 on size-separable chunks", rate)
	}
}

// TestIdenticalBackupsHighInference is the best-case sanity check: when the
// auxiliary backup equals the target's plaintext and frequencies are
// skewed, the locality attack should recover most of the stream.
func TestIdenticalBackupsHighInference(t *testing.T) {
	// Several recurring anchor chunks and unique filler. Each anchor recurs
	// 5 times, so its neighbor sets fit within v=15 and propagation reaches
	// every block; a single over-popular anchor would throttle coverage
	// (its tie set exceeds v), which is the coverage-limiting behaviour the
	// paper observes on real traces.
	var ids, mids []uint64
	next := uint64(100)
	for i := 0; i < 40; i++ {
		ids = append(ids, uint64(1+i%8)) // anchors 1..8, 5 occurrences each
		for j := 0; j < 20; j++ {
			next++
			ids = append(ids, next)
		}
	}
	truth := make(GroundTruth)
	for _, id := range ids {
		mids = append(mids, id+100000)
		truth[fp(id)] = fp(id + 100000)
	}
	c, m := stream("latest", 4096, ids...), stream("prior", 4096, mids...)
	if rate := mustRun(t, NewLocality(DefaultConfig()), c, m, Params{}).InferenceRate(truth); rate < 0.9 {
		t.Fatalf("identical-content inference rate %.2f, want >= 0.9", rate)
	}
}

// TestLocalityAttackStatsWBound forces drops with a frequent-anchor stream
// and w=1.
func TestLocalityAttackStatsWBound(t *testing.T) {
	var ids, mids []uint64
	next := uint64(100)
	for i := 0; i < 20; i++ {
		ids = append(ids, uint64(1+i%4))
		for j := 0; j < 5; j++ {
			next++
			ids = append(ids, next)
		}
	}
	for _, id := range ids {
		mids = append(mids, id+100000)
	}
	stats := mustRun(t, NewLocality(Config{U: 1, V: 15, W: 1}), stream("c", 4096, ids...), stream("m", 4096, mids...), Params{}).Stats
	if stats.DroppedByW == 0 {
		t.Fatal("w=1 should drop pairs on a branching stream")
	}
	if stats.PeakQueue > 2 {
		t.Fatalf("peak queue %d exceeds w=1 bound (+1 in-flight)", stats.PeakQueue)
	}
}

func TestInferenceRate(t *testing.T) {
	truth := GroundTruth{fp(1): fp(101), fp(2): fp(102), fp(3): fp(103)}
	res := Result{
		Pairs: []Pair{
			{C: fp(1), M: fp(101)}, // correct
			{C: fp(2), M: fp(999)}, // wrong
		},
		UniqueTarget: 3,
	}
	if got := res.InferenceRate(truth); got != 1.0/3.0 {
		t.Fatalf("rate = %v, want 1/3", got)
	}
	if got := (Result{UniqueTarget: 3}).InferenceRate(truth); got != 0 {
		t.Fatalf("empty inference rate = %v, want 0", got)
	}
	if got := (Result{}).InferenceRate(truth); got != 0 {
		t.Fatalf("empty target rate = %v, want 0", got)
	}
}

func TestSampleLeaked(t *testing.T) {
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	target := stream("t", 4096, ids...)
	truth := make(GroundTruth, len(ids))
	for _, id := range ids {
		truth[fp(id)] = fp(id + 10000)
	}
	leaked := SampleLeaked(target, truth, 0.05, 7)
	if len(leaked) != 50 {
		t.Fatalf("leaked %d pairs, want 50 (5%% of 1000 unique)", len(leaked))
	}
	for _, p := range leaked {
		if truth[p.C] != p.M {
			t.Fatal("leaked pair is not ground truth")
		}
	}
	// Reproducible under the same seed.
	again := SampleLeaked(target, truth, 0.05, 7)
	if !pairsEqual(again, leaked) {
		t.Fatal("SampleLeaked not reproducible for fixed seed")
	}
	if SampleLeaked(target, truth, 0, 7) != nil {
		t.Fatal("zero leakage should return nil")
	}
	if got := SampleLeaked(target, truth, 2.0, 7); len(got) != 1000 {
		t.Fatalf("leakage >1 should clamp to all uniques, got %d", len(got))
	}
}

func TestModeString(t *testing.T) {
	if CiphertextOnly.String() != "ciphertext-only" || KnownPlaintext.String() != "known-plaintext" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still print")
	}
}

// erroringSource fails after a few reads; attacks must propagate the
// error instead of returning a truncated-count result.
type erroringSource struct{}

func (erroringSource) Open() (ChunkReader, error) { return &erroringReader{}, nil }

type erroringReader struct{ reads int }

var errBoom = errors.New("boom")

func (r *erroringReader) Read(buf []trace.ChunkRef) (int, error) {
	if r.reads >= 2 {
		return 0, errBoom
	}
	r.reads++
	for i := range buf {
		buf[i] = trace.ChunkRef{FP: fp(uint64(i + 1)), Size: 64}
	}
	return len(buf), nil
}

func (r *erroringReader) Close() error { return nil }

func TestSourceErrorPropagates(t *testing.T) {
	_, m, _ := paperExample()
	_, err := NewLocality(DefaultConfig()).Run(erroringSource{}, BackupSource(m), Params{})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

// replaySource serves a different stream on each Open, breaking the
// ChunkSource contract that every pass sees the same stream.
type replaySource struct{ opens *int }

func (s replaySource) Open() (ChunkReader, error) {
	*s.opens++
	c, _, _ := paperExample()
	if *s.opens > 1 {
		c = stream("other", 4096, 1, 2, 6)
	}
	return BackupSource(c).Open()
}

// TestReplayMismatchFails: a chunk the neighbour pass meets that the
// frequency pass never counted has no dense id, so the run must fail
// instead of indexing the rows with it.
func TestReplayMismatchFails(t *testing.T) {
	_, m, _ := paperExample()
	opens := 0
	_, err := NewLocality(DefaultConfig()).Run(replaySource{&opens}, BackupSource(m), Params{})
	if !errors.Is(err, errReplay) {
		t.Fatalf("err = %v, want errReplay", err)
	}
}

// shortReadSource wraps a slice source but returns at most k refs per
// Read, exercising the scan across read boundaries.
type shortReadSource struct {
	refs []trace.ChunkRef
	k    int
}

func (s shortReadSource) Open() (ChunkReader, error) {
	return &shortReader{refs: s.refs, k: s.k}, nil
}

type shortReader struct {
	refs []trace.ChunkRef
	k    int
	pos  int
}

func (r *shortReader) Read(buf []trace.ChunkRef) (int, error) {
	if r.pos >= len(r.refs) {
		return 0, io.EOF
	}
	lim := r.k
	if lim > len(buf) {
		lim = len(buf)
	}
	n := copy(buf[:lim], r.refs[r.pos:])
	r.pos += n
	return n, nil
}

func (r *shortReader) Close() error { return nil }

func TestShortReadsEquivalent(t *testing.T) {
	c, m, truth := paperExample()
	want := mustRun(t, NewLocality(Config{U: 1, V: 1}), c, m, Params{})
	for _, k := range []int{1, 3, 7} {
		res, err := NewLocality(Config{U: 1, V: 1}).Run(
			shortReadSource{refs: c.Chunks, k: k},
			shortReadSource{refs: m.Chunks, k: k},
			Params{},
		)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(res.Pairs, want.Pairs) {
			t.Fatalf("k=%d: pairs differ from whole-slice run", k)
		}
		if res.InferenceRate(truth) != want.InferenceRate(truth) {
			t.Fatalf("k=%d: rates differ", k)
		}
	}
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type streams struct{ c, m *trace.Backup }

// testStreams reads a small, locality-rich stream pair: the first (m)
// and last (c) backup of a 2 MiB, three-backup synthetic snapshot chain,
// frozen in testdata/test-streams.txt as "m|c <fingerprint> <size>" lines
// so that the engine tests here keep their inputs when a dataset
// generator changes. At this size nearly every chunk occurs once, so the
// ciphertext-only attacks' whole-stream rankings rest on fingerprint tie
// order and the rates they read are particular to this pair.
func testStreams(t *testing.T) streams {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "test-streams.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds := streams{c: &trace.Backup{}, m: &trace.Backup{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var tag, hex string
		var size uint32
		if _, err := fmt.Sscan(sc.Text(), &tag, &hex, &size); err != nil {
			t.Fatalf("test-streams.txt: %q: %v", sc.Text(), err)
		}
		fp, err := fphash.Parse(hex)
		if err != nil {
			t.Fatal(err)
		}
		b := ds.m
		if tag == "c" {
			b = ds.c
		}
		b.Chunks = append(b.Chunks, trace.ChunkRef{FP: fp, Size: size})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// identityTruth maps each target chunk to itself: testStreams are
// plaintext, so a correct inference returns the chunk's own fingerprint.
func identityTruth(ds streams) GroundTruth {
	truth := make(GroundTruth)
	for _, ch := range ds.c.Chunks {
		truth[ch.FP] = ch.FP
	}
	return truth
}

// TestConcurrentRuns exercises one Attack value running concurrently
// with distinct sources (the documented contract), under -race.
func TestConcurrentRuns(t *testing.T) {
	ds := testStreams(t)
	a := NewLocality(DefaultConfig())
	want := mustRun(t, a, ds.c, ds.m, Params{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := a.Run(BackupSource(ds.c), BackupSource(ds.m), Params{})
			if err != nil {
				t.Error(err)
				return
			}
			if !pairsEqual(res.Pairs, want.Pairs) {
				t.Error("concurrent run diverged")
			}
		}()
	}
	wg.Wait()
}

func TestSuite(t *testing.T) {
	got := Suite(Config{U: 1, V: 15, W: 1000, SizeAware: true})
	names := []string{"basic", "locality", "advanced"}
	if len(got) != len(names) {
		t.Fatalf("suite has %d attacks, want %d", len(got), len(names))
	}
	for i, a := range got {
		if a.Name() != names[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, a.Name(), names[i])
		}
	}
}
