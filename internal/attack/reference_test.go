package attack

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// This file holds the locality engine to a reference of Algorithms 2–3
// written the way the paper states them: every stream counted serially
// into fingerprint-keyed maps (F, and the L/R neighbour rows), and every
// walk step flattening four rows and running FREQ-ANALYSIS on them. The
// reference shares only the ranking kernel (freqAnalysis) with the
// engine; the counting, the row layout and the walk are its own.

// refStream is one stream counted into fingerprint-keyed maps.
type refStream struct {
	freq map[fphash.Fingerprint]freqEntry
	l, r map[fphash.Fingerprint]map[fphash.Fingerprint]stat
}

func refCount(refs []trace.ChunkRef) refStream {
	s := refStream{
		freq: make(map[fphash.Fingerprint]freqEntry),
		l:    make(map[fphash.Fingerprint]map[fphash.Fingerprint]stat),
		r:    make(map[fphash.Fingerprint]map[fphash.Fingerprint]stat),
	}
	bump := func(rows map[fphash.Fingerprint]map[fphash.Fingerprint]stat, x, y fphash.Fingerprint, pos int) {
		row := rows[x]
		if row == nil {
			row = make(map[fphash.Fingerprint]stat)
			rows[x] = row
		}
		st, ok := row[y]
		if !ok {
			st.first = int32(pos)
		}
		st.count++
		row[y] = st
	}
	for i, ref := range refs {
		e, ok := s.freq[ref.FP]
		if !ok {
			// First occurrence fixes the position and the size.
			e = freqEntry{fp: ref.FP, stat: stat{first: int32(i)}, size: ref.Size}
		}
		e.stat.count++
		s.freq[ref.FP] = e
		if i > 0 {
			bump(s.l, ref.FP, refs[i-1].FP, i)
			bump(s.r, refs[i-1].FP, ref.FP, i)
		}
	}
	return s
}

// flat turns one neighbour row into rankable entries carrying each
// neighbour's stream-wide size.
func (s refStream) flat(row map[fphash.Fingerprint]stat) []freqEntry {
	out := make([]freqEntry, 0, len(row))
	for f, st := range row {
		out = append(out, freqEntry{fp: f, stat: st, size: s.freq[f].size})
	}
	return out
}

func (s refStream) all() []freqEntry {
	out := make([]freqEntry, 0, len(s.freq))
	for _, e := range s.freq {
		out = append(out, e)
	}
	return out
}

// refLocality runs Algorithm 2 (Algorithm 3 with cfg.SizeAware) on two
// materialized streams.
func refLocality(c, m []trace.ChunkRef, cfg Config) Result {
	if cfg.Mode == 0 {
		cfg.Mode = CiphertextOnly
	}
	tc, tm := refCount(c), refCount(m)

	var g []Pair
	switch cfg.Mode {
	case KnownPlaintext:
		for _, pr := range cfg.Leaked {
			_, okc := tc.freq[pr.C]
			_, okm := tm.freq[pr.M]
			if okc && okm {
				g = append(g, pr)
			}
		}
	default:
		g = freqAnalysis(tc.all(), tm.all(), cfg.U, cfg.SizeAware, false)
	}
	stats := Stats{Seeds: len(g)}
	t := make(map[fphash.Fingerprint]fphash.Fingerprint)
	for _, pr := range g {
		if _, ok := t[pr.C]; !ok {
			t[pr.C] = pr.M
		}
	}
	for head := 0; head < len(g); head++ {
		cur := g[head]
		stats.Iterations++
		tl := freqAnalysis(tc.flat(tc.l[cur.C]), tm.flat(tm.l[cur.M]), cfg.V, cfg.SizeAware, !cfg.ArbitraryTies)
		tr := freqAnalysis(tc.flat(tc.r[cur.C]), tm.flat(tm.r[cur.M]), cfg.V, cfg.SizeAware, !cfg.ArbitraryTies)
		for _, side := range [2][]Pair{tl, tr} {
			for _, pr := range side {
				if _, seen := t[pr.C]; seen {
					continue
				}
				t[pr.C] = pr.M
				if cfg.W <= 0 || len(g)-head <= cfg.W {
					g = append(g, pr)
				} else {
					stats.DroppedByW++
				}
			}
		}
		if pending := len(g) - head - 1; pending > stats.PeakQueue {
			stats.PeakQueue = pending
		}
	}
	out := make([]Pair, 0, len(t))
	for cf, mf := range t {
		out = append(out, Pair{C: cf, M: mf})
	}
	slices.SortFunc(out, func(a, b Pair) int { return a.C.Compare(b.C) })
	stats.Inferred = len(out)
	return Result{Pairs: out, Stats: stats, UniqueTarget: len(tc.freq)}
}

// checkAgainstReference runs the engine and compares it with the
// reference on the same streams and configuration.
func checkAgainstReference(t *testing.T, name string, c, m []trace.ChunkRef, cfg Config) Result {
	t.Helper()
	want := refLocality(c, m, cfg)
	got, err := NewLocality(cfg).Run(SliceSource(c), SliceSource(m), Params{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got.Pairs, want.Pairs) || got.Stats != want.Stats || got.UniqueTarget != want.UniqueTarget {
		t.Fatalf("%s: engine %d pairs %+v unique %d, reference %d pairs %+v unique %d",
			name, len(got.Pairs), got.Stats, got.UniqueTarget, len(want.Pairs), want.Stats, want.UniqueTarget)
	}
	return got
}

// localityStreams draws a plaintext backup m and an encrypted later
// backup c of it. m repeats runs of a small chunk set, so counts tie
// often and neighbour rows hold several entries; c is m with chunks
// replaced by new ones, dropped, or followed by a replayed run, and every
// fingerprint of c is its plaintext's plus a fixed offset (a
// deterministic encryption). Chunk sizes span five 16-byte classes, so
// a row often holds more than v entries of one class.
// leaked holds about 3 % of c's unique chunks paired with their
// plaintexts, plus one pair whose plaintext is not in m.
func localityStreams(seed int64) (c, m []trace.ChunkRef, leaked []Pair) {
	rng := rand.New(rand.NewSource(seed))
	const encOffset = 1 << 40
	ref := func(id uint64) trace.ChunkRef {
		return trace.ChunkRef{FP: fphash.FromUint64(id), Size: 2048 + uint32(id*7919%64)}
	}
	base := make([]uint64, 0, 2000)
	for len(base) < 2000 {
		start := uint64(1 + rng.Intn(300))
		n := 2 + rng.Intn(12)
		for k := 0; k < n; k++ {
			base = append(base, start+uint64(k))
		}
	}
	for _, id := range base {
		m = append(m, ref(id))
	}
	next := uint64(100000)
	var ids []uint64
	for i := 0; i < len(base); i++ {
		switch r := rng.Intn(100); {
		case r < 8:
			ids = append(ids, next)
			next++
		case r < 12:
		case r < 16 && i > 20:
			from := i - 1 - rng.Intn(20)
			ids = append(ids, base[from:from+1+rng.Intn(i-from)]...)
		default:
			ids = append(ids, base[i])
		}
	}
	seen := make(map[uint64]bool)
	for _, id := range ids {
		r := ref(id)
		r.FP = fphash.FromUint64(id + encOffset)
		c = append(c, r)
		if !seen[id] && rng.Intn(100) < 3 {
			leaked = append(leaked, Pair{C: r.FP, M: fphash.FromUint64(id)})
		}
		seen[id] = true
	}
	leaked = append(leaked, Pair{C: c[0].FP, M: fphash.FromUint64(next + 1)})
	return c, m, leaked
}

// TestLocalityMatchesReference holds both locality attacks, in both
// modes and under both tie rules, to the map-based reference on random
// streams with strong locality. W is small so the inferred set's bound
// drops pairs.
func TestLocalityMatchesReference(t *testing.T) {
	var dropped, seeded, inferred int
	for seed := int64(1); seed <= 4; seed++ {
		c, m, leaked := localityStreams(seed)
		for _, sizeAware := range []bool{false, true} {
			for _, mode := range []Mode{CiphertextOnly, KnownPlaintext} {
				for _, ties := range []bool{false, true} {
					cfg := Config{U: 2, V: 2, W: 8, Mode: mode, SizeAware: sizeAware, ArbitraryTies: ties}
					if mode == KnownPlaintext {
						cfg.Leaked = leaked
					}
					name := fmt.Sprintf("seed=%d/size=%v/%s/arbitrary=%v", seed, sizeAware, mode, ties)
					res := checkAgainstReference(t, name, c, m, cfg)
					dropped += res.Stats.DroppedByW
					inferred += res.Stats.Inferred
					if mode == KnownPlaintext {
						seeded += res.Stats.Seeds
					}
				}
			}
		}
	}
	if dropped == 0 || seeded == 0 || inferred == 0 {
		t.Fatalf("streams too weak to exercise the walk: %d dropped by w, %d known-plaintext seeds, %d inferred", dropped, seeded, inferred)
	}
}

// fuzzStreams decodes fuzzer bytes into two streams and a configuration.
// data[0] holds the flags (bit 0 known-plaintext, bit 1 size-aware,
// bit 2 arbitrary ties), data[1] the parameters (u = 1 + bits 0–1,
// v = 1 + bits 2–4, w = bits 5–7 with 0 unbounded), data[2] the length
// of m. Every later byte is one chunk: bits 0–4 pick its fingerprint
// from an alphabet of 32, bits 5–7 its size class. The first data[2] of
// them are m, the rest c. Known-plaintext mode leaks (c[k], m[k]) for
// every fourth k.
func fuzzStreams(data []byte) (c, m []trace.ChunkRef, cfg Config, ok bool) {
	if len(data) < 3 {
		return nil, nil, cfg, false
	}
	flags, knobs, body := data[0], data[1], data[3:]
	cut := min(int(data[2]), len(body))
	chunk := func(b byte) trace.ChunkRef {
		return trace.ChunkRef{FP: fphash.FromUint64(uint64(b&0x1f) + 1), Size: 1024 + 24*uint32(b>>5)}
	}
	for _, b := range body[:cut] {
		m = append(m, chunk(b))
	}
	for _, b := range body[cut:] {
		c = append(c, chunk(b))
	}
	cfg = Config{
		U:             1 + int(knobs&3),
		V:             1 + int(knobs>>2&7),
		W:             int(knobs >> 5),
		Mode:          CiphertextOnly,
		SizeAware:     flags&2 != 0,
		ArbitraryTies: flags&4 != 0,
	}
	if flags&1 != 0 {
		cfg.Mode = KnownPlaintext
		for k := 0; k < len(c) && k < len(m); k += 4 {
			cfg.Leaked = append(cfg.Leaked, Pair{C: c[k].FP, M: m[k].FP})
		}
	}
	return c, m, cfg, true
}

// FuzzLocalityMatchesReference holds the engine to the reference on
// fuzzer-chosen streams, seeded with Figure 3's worked example.
func FuzzLocalityMatchesReference(f *testing.F) {
	// Figure 3: M = <M1, M2, M1, M2, M3, M4, M2, M3, M4> as chunks
	// 17..20, C = <C1, C2, C5, C2, C1, C2, C3, C4, C2, C3, C4, C4> as
	// chunks 1..5, all in one size class.
	example := []byte{17, 18, 17, 18, 19, 20, 18, 19, 20, 1, 2, 5, 2, 1, 2, 3, 4, 2, 3, 4, 4}
	for _, flags := range []byte{0, 1, 2, 3, 4, 7} {
		f.Add(append([]byte{flags, 0, 9}, example...))
	}
	f.Add(append([]byte{3, 0xff, 9}, example...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, m, cfg, ok := fuzzStreams(data)
		if !ok {
			return
		}
		checkAgainstReference(t, "fuzz", c, m, cfg)
	})
}
