package attack

import (
	"fmt"
	"math/rand"
	"slices"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// Pair is one inferred ciphertext-plaintext chunk pair (C, M).
type Pair struct {
	C fphash.Fingerprint // ciphertext chunk of the latest backup
	M fphash.Fingerprint // inferred original plaintext chunk
}

// GroundTruth maps each ciphertext chunk fingerprint to the fingerprint
// of the plaintext chunk it encrypts. Trace-level encryption simulations
// (package defense) produce it alongside the ciphertext stream.
type GroundTruth map[fphash.Fingerprint]fphash.Fingerprint

// Mode selects how an attack uses auxiliary knowledge (Section 3.3).
type Mode int

const (
	// CiphertextOnly models an adversary with only the ciphertext stream
	// and the auxiliary prior backup: the locality attacks seed their
	// inferred set by frequency analysis.
	CiphertextOnly Mode = iota + 1
	// KnownPlaintext models an adversary that additionally knows some
	// leaked ciphertext-plaintext pairs of the latest backup.
	KnownPlaintext
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CiphertextOnly:
		return "ciphertext-only"
	case KnownPlaintext:
		return "known-plaintext"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes an attack. The zero value means the basic attack's
// needs (no parameters); the locality attacks read every field.
type Config struct {
	// U is the number of seed pairs taken from whole-stream frequency
	// analysis in ciphertext-only mode (paper default 1).
	U int
	// V is the number of pairs returned by each per-neighbor frequency
	// analysis (paper default 15).
	V int
	// W bounds the size of the inferred FIFO set G (paper default 200,000;
	// scale with dataset size). W <= 0 means unbounded.
	W int
	// Mode selects the initialization (default CiphertextOnly). The basic
	// attack is classical frequency analysis either way: it uses no leaked
	// pairs (the paper's Algorithm 1 has no known-plaintext variant).
	Mode Mode
	// Leaked supplies the known ciphertext-plaintext pairs for
	// KnownPlaintext mode. Pairs whose chunks do not appear in both
	// streams are ignored, as in the paper.
	Leaked []Pair
	// SizeAware enables the advanced variant (Algorithm 3): every
	// frequency analysis is refined by chunk-size classification.
	SizeAware bool
	// ArbitraryTies makes the per-neighbor frequency analyses break ties
	// arbitrarily (by fingerprint) instead of by first stream position
	// (the tie-breaking ablation; the default is the stronger attack).
	ArbitraryTies bool
}

// DefaultConfig returns the paper's default locality parameters (u=1,
// v=15, w=200,000, ciphertext-only).
func DefaultConfig() Config {
	return Config{U: 1, V: 15, W: 200000, Mode: CiphertextOnly}
}

// Params is the engine's settings, of which it has none: each stream is
// counted in one serial read per pass, and the two streams of a run
// concurrently. Run keeps the argument so existing callers need not
// change.
type Params struct{}

// Stats reports the internals of one attack run — the quantities behind
// the paper's Section 5.2 cost discussion.
type Stats struct {
	// Seeds is the number of pairs the inferred set was initialized with.
	Seeds int
	// Iterations is the number of pairs popped from G and processed.
	Iterations int
	// PeakQueue is the maximum number of pending pairs in G.
	PeakQueue int
	// DroppedByW is the number of inferred pairs not enqueued because G
	// was at its w bound (they still count as inferred).
	DroppedByW int
	// Inferred is the number of ciphertext-plaintext pairs returned.
	Inferred int
}

// Result is one attack run's output.
type Result struct {
	// Pairs are the inferred ciphertext-plaintext pairs: sorted by
	// ciphertext fingerprint for the locality attacks, in rank order for
	// basic. Every C fingerprint occurs in the target stream.
	Pairs []Pair
	// Stats are the run's internals.
	Stats Stats
	// UniqueTarget is the number of distinct fingerprints in the target
	// (ciphertext) stream — the denominator of the inference rate,
	// computed during counting so scoring needs no second pass.
	UniqueTarget int
}

// InferenceRate computes the paper's severity metric: correctly inferred
// unique ciphertext chunks over total unique ciphertext chunks in the
// target stream. Every pair counts, because every inferred pair's
// ciphertext chunk occurs in the target stream by construction.
func (r Result) InferenceRate(truth GroundTruth) float64 {
	if r.UniqueTarget == 0 {
		return 0
	}
	correct := 0
	for _, p := range r.Pairs {
		if truth[p.C] == p.M {
			correct++
		}
	}
	return float64(correct) / float64(r.UniqueTarget)
}

// Attack is one inference attack against a tapped upload stream: c is the
// ciphertext stream of the latest (target) backup, m the plaintext stream
// of a prior backup (the auxiliary information). Implementations are
// stateless values; Run may be called concurrently with distinct sources.
type Attack interface {
	// Name identifies the attack ("basic", "locality", "advanced").
	Name() string
	// Run consumes both streams (each once per counting pass) and returns
	// the inferred pairs.
	Run(c, m ChunkSource, p Params) (Result, error)
}

// NewBasic returns the basic attack (Algorithm 1): whole-stream frequency
// analysis, pairing chunks rank for rank. Only cfg.SizeAware is read
// (classical frequency analysis has no other parameters); leaked pairs
// are ignored in either mode.
func NewBasic(cfg Config) Attack { return basicAttack{cfg: cfg} }

// NewLocality returns the locality-based attack (Algorithm 2), or the
// advanced variant (Algorithm 3) when cfg.SizeAware is set.
func NewLocality(cfg Config) Attack { return localityAttack{cfg: cfg} }

// NewAdvanced returns the advanced locality-based attack (Algorithm 3):
// NewLocality with size-aware frequency analysis forced on.
func NewAdvanced(cfg Config) Attack {
	cfg.SizeAware = true
	return localityAttack{cfg: cfg}
}

// Suite returns the full attack matrix for one configuration: basic,
// locality, and advanced, all sharing cfg's mode and parameters — the
// loop the experiment drivers iterate.
func Suite(cfg Config) []Attack {
	basic := cfg
	basic.SizeAware = false
	loc := cfg
	loc.SizeAware = false
	return []Attack{NewBasic(basic), NewLocality(loc), NewAdvanced(cfg)}
}

type basicAttack struct{ cfg Config }

func (a basicAttack) Name() string { return "basic" }

func (a basicAttack) Run(c, m ChunkSource, _ Params) (Result, error) {
	tc, tm, err := buildTablePair(c, m, nil)
	if err != nil {
		return Result{}, err
	}
	// Nothing reads the tables after this, so the arenas are ranked in
	// place.
	pairs := freqAnalysis(tc.ents, tm.ents, 0, a.cfg.SizeAware, false)
	return Result{
		Pairs:        pairs,
		Stats:        Stats{Inferred: len(pairs)},
		UniqueTarget: len(tc.ents),
	}, nil
}

type localityAttack struct{ cfg Config }

func (a localityAttack) Name() string {
	if a.cfg.SizeAware {
		return "advanced"
	}
	return "locality"
}

func (a localityAttack) Run(c, m ChunkSource, _ Params) (Result, error) {
	cfg := a.cfg
	if cfg.Mode == 0 {
		cfg.Mode = CiphertextOnly
	}
	tc, tm, err := buildTablePair(c, m, &rowOrder{sizeAware: cfg.SizeAware, posTies: !cfg.ArbitraryTies})
	if err != nil {
		return Result{}, err
	}

	// Initialize the inferred set G (FIFO queue of dense id pairs) and
	// the result set T (ciphertext id -> plaintext id, -1 while unset).
	var g []idPair
	switch cfg.Mode {
	case KnownPlaintext:
		for _, pr := range cfg.Leaked {
			ci, okc := tc.idx[pr.C]
			mi, okm := tm.idx[pr.M]
			if okc && okm {
				g = append(g, idPair{ci, mi})
			}
		}
	default:
		// freqAnalysis ranks in place, so it gets copies: the arenas'
		// order is the dense ids.
		for _, pr := range freqAnalysis(slices.Clone(tc.ents), slices.Clone(tm.ents), cfg.U, cfg.SizeAware, false) {
			g = append(g, idPair{tc.idx[pr.C], tm.idx[pr.M]})
		}
	}

	stats := Stats{Seeds: len(g)}

	t := make([]int32, len(tc.ents))
	for i := range t {
		t[i] = -1
	}
	for _, pr := range g {
		if t[pr.c] < 0 {
			t[pr.c] = pr.m
			stats.Inferred++
		}
	}

	// Main loop: pop a pair, infer through its left and right neighbour
	// rows. The rows are already ranked, so each analysis pairs them
	// entry by entry.
	var head int
	infer := func(ci, mi int32) {
		if t[ci] >= 0 {
			return
		}
		t[ci] = mi
		stats.Inferred++
		if cfg.W <= 0 || len(g)-head <= cfg.W {
			g = append(g, idPair{ci, mi})
		} else {
			stats.DroppedByW++
		}
	}
	for ; head < len(g); head++ {
		cur := g[head]
		stats.Iterations++
		matchRows(tc.l.row(cur.c), tm.l.row(cur.m), tc, tm, cfg.V, cfg.SizeAware, infer)
		matchRows(tc.r.row(cur.c), tm.r.row(cur.m), tc, tm, cfg.V, cfg.SizeAware, infer)
		if pending := len(g) - head - 1; pending > stats.PeakQueue {
			stats.PeakQueue = pending
		}
	}

	out := make([]Pair, 0, stats.Inferred)
	for ci, mi := range t {
		if mi >= 0 {
			out = append(out, Pair{C: tc.ents[ci].fp, M: tm.ents[mi].fp})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int { return a.C.Compare(b.C) })
	return Result{Pairs: out, Stats: stats, UniqueTarget: len(tc.ents)}, nil
}

// idPair is a ciphertext-plaintext pair of dense chunk ids.
type idPair struct{ c, m int32 }

// matchRows is FREQ-ANALYSIS on two ranked neighbour rows: it pairs the
// i-th entry of rc with the i-th of rm, at most x pairs (x <= 0 means
// unbounded), and hands each pair to infer. When sizeAware, the rows are
// ranked by size class first and pairing happens within each class both
// rows hold, classes in ascending order, at most x pairs per class —
// exactly freqAnalysis's order on the same rows.
func matchRows(rc, rm []nbr, tc, tm *tables, x int, sizeAware bool, infer func(c, m int32)) {
	if !sizeAware {
		n := min(len(rc), len(rm))
		if x > 0 && x < n {
			n = x
		}
		for i := 0; i < n; i++ {
			infer(rc[i].id, rm[i].id)
		}
		return
	}
	class := func(t *tables, e nbr) uint32 { return blocks(t.ents[e.id].size) }
	i, j := 0, 0
	for i < len(rc) && j < len(rm) {
		cc, cm := class(tc, rc[i]), class(tm, rm[j])
		switch {
		case cc < cm:
			i++
		case cc > cm:
			j++
		default:
			for k := 0; i < len(rc) && j < len(rm) && class(tc, rc[i]) == cc && class(tm, rm[j]) == cc; k++ {
				if x <= 0 || k < x {
					infer(rc[i].id, rm[j].id)
				}
				i++
				j++
			}
			for i < len(rc) && class(tc, rc[i]) == cc {
				i++
			}
			for j < len(rm) && class(tm, rm[j]) == cc {
				j++
			}
		}
	}
}

// SampleLeaked draws leaked ciphertext-plaintext pairs for known-plaintext
// mode: a uniform sample of unique ciphertext chunks of the target backup,
// paired with their true plaintexts, sized so that
// len(result)/unique(target) equals leakageRate (Section 5.3.3). The seed
// makes the sample reproducible; the randomness is a private *rand.Rand,
// never global generator state.
func SampleLeaked(target *trace.Backup, truth GroundTruth, leakageRate float64, seed int64) []Pair {
	if leakageRate <= 0 {
		return nil
	}
	seen := make(map[fphash.Fingerprint]struct{}, len(target.Chunks))
	uniq := make([]fphash.Fingerprint, 0, len(target.Chunks))
	for _, ch := range target.Chunks {
		if _, ok := seen[ch.FP]; ok {
			continue
		}
		seen[ch.FP] = struct{}{}
		uniq = append(uniq, ch.FP)
	}
	slices.SortFunc(uniq, fphash.Fingerprint.Compare)
	n := int(float64(len(uniq))*leakageRate + 0.5)
	if n > len(uniq) {
		n = len(uniq)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	out := make([]Pair, 0, n)
	for _, cf := range uniq[:n] {
		if mf, ok := truth[cf]; ok {
			out = append(out, Pair{C: cf, M: mf})
		}
	}
	return out
}
