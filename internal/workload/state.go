package workload

import (
	"math/rand"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// mix64 is the splitmix64 finalizer, a bijection on uint64: distinct
// inputs mint distinct fingerprints.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// minter mints fresh, never-repeating fingerprints. The counter is salted
// from the generator's random stream, so distinct seeds mint from disjoint
// fingerprint spaces — which is what makes "distinct seeds ⇒ distinct
// fingerprint multisets" a hard property rather than a likelihood.
type minter struct {
	salt uint64
	next uint64
}

func (m *minter) mint() fphash.Fingerprint {
	for {
		m.next++
		fp := fphash.FromUint64(mix64(m.salt + m.next))
		if !fp.IsZero() {
			return fp
		}
	}
}

// Extent is a contiguous run of chunks that moves, copies, and churns as a
// unit: a file, a media blob, a VM image, or a database segment. Copying
// an extent copies its chunk refs (same fingerprints — that is what
// duplication is) into an independent object, so later edits to one copy
// never touch the others.
type Extent struct {
	chunks []trace.ChunkRef
	// vol is the extent's churn propensity; 0 marks the immutable stable
	// backbone that survives across many generations.
	vol float64
	// dir names the directory the extent lives in (0: none). A
	// directory's extents are adjacent in the stream and share one vol;
	// see fillDirs.
	dir int
}

func (e *Extent) clone() *Extent {
	c := make([]trace.ChunkRef, len(e.chunks))
	copy(c, e.chunks)
	return &Extent{chunks: c, vol: e.vol}
}

func (e *Extent) bytes() int {
	var n int
	for _, c := range e.chunks {
		n += int(c.Size)
	}
	return n
}

// Stream is one user's backup stream: extents in stable stream order.
type Stream struct {
	extents []*Extent
}

func (s *Stream) bytes() int {
	var n int
	for _, e := range s.extents {
		n += e.bytes()
	}
	return n
}

func (s *Stream) chunkCount() int {
	var n int
	for _, e := range s.extents {
		n += len(e.chunks)
	}
	return n
}

// library is the shared duplication pool. Whole objects are copied —
// within a stream, across users, across generations — so duplication is
// sequence-preserving: a popular chunk recurs with the same neighbours,
// the structure chunk locality rests on (Section 4.2). It has two tiers,
// the two features of Figure 1's frequency distribution: a tiny hot head
// of single chunks copied at geometrically separated rates (the extreme,
// rank-stable head the ciphertext-only attacks seed from), and a broad
// tail of ordinary extents copied uniformly, so most duplicated objects
// have few copies and neighbour tables stay small.
type library struct {
	hot  []*Extent
	tail []*Extent
}

// State is the working state a generator evolves: per-user extent streams,
// the shared duplication library, the fingerprint minter, and the single
// random stream every modifier draws from.
type State struct {
	// Rng is the generator's private random source. Modifiers must take
	// all randomness from it (see the package documentation).
	Rng *rand.Rand
	// Cfg is the validated configuration.
	Cfg Config

	mint  minter
	users []*Stream
	lib   *library
	dirs  int // directory names handed out so far
}

func newState(cfg Config) *State {
	rng := cfg.rng()
	st := &State{
		Rng:   rng,
		Cfg:   cfg,
		mint:  minter{salt: rng.Uint64()},
		users: make([]*Stream, cfg.Users),
	}
	for i := range st.users {
		st.users[i] = &Stream{}
	}
	return st
}

// Users returns the per-user streams in stable order.
func (st *State) Users() []*Stream { return st.users }

// MintChunk mints one fresh chunk with a size drawn from the chunk model.
func (st *State) MintChunk() trace.ChunkRef {
	return trace.ChunkRef{FP: st.mint.mint(), Size: st.Cfg.Chunk.Draw(st.Rng)}
}

// FreshExtent mints a new extent of approximately targetBytes.
func (st *State) FreshExtent(targetBytes int) *Extent {
	e := &Extent{}
	var got int
	for got < targetBytes || len(e.chunks) == 0 {
		c := st.MintChunk()
		e.chunks = append(e.chunks, c)
		got += int(c.Size)
	}
	return e
}

// objectBytes draws an object size with the configured mean (exponential,
// floored at one chunk's worth of data).
func (st *State) objectBytes(mean int) int {
	n := int(st.Rng.ExpFloat64() * float64(mean))
	if n < 4096 {
		n = 4096
	}
	return n
}

// InitLibrary pre-generates the shared duplication pool: nHot hot extents
// (single-chunk, so the frequency head consists of well-separated
// singleton ranks) and nTail ordinary extents with the given mean size.
func (st *State) InitLibrary(nHot, nTail, meanBytes int) {
	lib := &library{
		hot:  make([]*Extent, nHot),
		tail: make([]*Extent, nTail),
	}
	for i := range lib.hot {
		lib.hot[i] = &Extent{chunks: []trace.ChunkRef{st.MintChunk()}}
	}
	for i := range lib.tail {
		lib.tail[i] = st.FreshExtent(st.objectBytes(meanBytes))
	}
	st.lib = lib
}

// pickHot returns a copy of a hot library extent, rank chosen geometrically
// so rank 0 is copied about twice as often as rank 1 — stable,
// well-separated frequency ranks across generations.
func (st *State) pickHot() *Extent {
	h := 0
	for h < len(st.lib.hot)-1 && st.Rng.Float64() < 0.5 {
		h++
	}
	return st.lib.hot[h].clone()
}

// pickTail returns a copy of a uniformly selected tail library extent.
func (st *State) pickTail() *Extent {
	return st.lib.tail[st.Rng.Intn(len(st.lib.tail))].clone()
}

// drawVolatility assigns an extent's churn propensity: stableFrac of
// extents are immutable, the rest get an exponential weight so a small hot
// working set dominates churn.
func (st *State) drawVolatility(stableFrac float64) float64 {
	if st.Rng.Float64() < stableFrac {
		return 0
	}
	return st.Rng.ExpFloat64() + 0.05
}

// newObject draws one new extent for a growing stream: a hot library copy
// with probability hotFrac, a tail library copy with probability reuseFrac,
// or a fresh extent otherwise.
func (st *State) newObject(meanBytes int, hotFrac, reuseFrac float64) *Extent {
	switch r := st.Rng.Float64(); {
	case st.lib != nil && r < hotFrac:
		return st.pickHot()
	case st.lib != nil && r < hotFrac+reuseFrac:
		return st.pickTail()
	default:
		return st.FreshExtent(st.objectBytes(meanBytes))
	}
}

// Fill grows user u's stream by approximately targetBytes of objects with
// the given library-draw and stability mix.
func (st *State) Fill(u, targetBytes int, hotFrac, reuseFrac, stableFrac float64) {
	s := st.users[u]
	var added int
	for added < targetBytes {
		e := st.newObject(st.Cfg.MeanObjectBytes, hotFrac, reuseFrac)
		e.vol = st.drawVolatility(stableFrac)
		s.extents = append(s.extents, e)
		added += e.bytes()
	}
}

// Snapshot emits the full-backup chunk stream of the current generation:
// users in order, extents in stream order within each user.
func (st *State) Snapshot(label string) *trace.Backup {
	var total int
	for _, s := range st.users {
		total += s.chunkCount()
	}
	b := &trace.Backup{Label: label, Chunks: make([]trace.ChunkRef, 0, total)}
	for _, s := range st.users {
		for _, e := range s.extents {
			b.Chunks = append(b.Chunks, e.chunks...)
		}
	}
	return b
}

// rewriteRegion rewrites a clustered contiguous region covering
// contentFrac of the extent's chunks with freshly minted ones — the
// paper's "changes to backups often appear in few clustered regions of
// chunks". When zoneFrac is positive the region starts within the leading
// zoneFrac of the extent with high probability, concentrating churn in a
// hot zone and leaving a stable backbone. Chunk counts drift by ±1 like
// content-defined boundaries under edits.
func (st *State) rewriteRegion(e *Extent, contentFrac, zoneFrac float64) {
	n := len(e.chunks)
	if n == 0 {
		return
	}
	run := int(float64(n)*contentFrac + 0.5)
	if run < 1 {
		run = 1
	}
	if run > n {
		run = n
	}
	limit := n - run + 1
	start := st.Rng.Intn(limit)
	if zoneFrac > 0 && st.Rng.Float64() < 0.85 {
		zone := int(float64(n) * zoneFrac)
		if zone < 1 {
			zone = 1
		}
		if zone > limit {
			zone = limit
		}
		start = st.Rng.Intn(zone)
	}
	repl := make([]trace.ChunkRef, 0, run+1)
	for i := 0; i < run; i++ {
		repl = append(repl, st.MintChunk())
	}
	switch st.Rng.Intn(4) {
	case 0:
		repl = append(repl, st.MintChunk())
	case 1:
		if len(repl) > 1 {
			repl = repl[:len(repl)-1]
		}
	}
	out := make([]trace.ChunkRef, 0, n-run+len(repl))
	out = append(out, e.chunks[:start]...)
	out = append(out, repl...)
	out = append(out, e.chunks[start+run:]...)
	e.chunks = out
}

// weightedSample picks up to k distinct extent indices with probability
// proportional to volatility; immutable extents are never picked.
func (st *State) weightedSample(s *Stream, k int) []int {
	type cand struct {
		idx int
		w   float64
	}
	cands := make([]cand, 0, len(s.extents))
	var total float64
	for i, e := range s.extents {
		if e.vol > 0 {
			cands = append(cands, cand{idx: i, w: e.vol})
			total += e.vol
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, 0, k)
	for len(out) < k {
		r := st.Rng.Float64() * total
		var acc float64
		pick := len(cands) - 1
		for i, c := range cands {
			acc += c.w
			if r < acc {
				pick = i
				break
			}
		}
		out = append(out, cands[pick].idx)
		total -= cands[pick].w
		cands[pick] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return out
}

// churn rewrites frac of e's chunks in 1 to maxRegions clustered regions
// biased into the leading zoneFrac (see rewriteRegion): image edits
// cluster in filesystem regions but land in more than one place per
// generation.
func (st *State) churn(e *Extent, frac, zoneFrac float64, maxRegions int) {
	if frac <= 0 {
		return
	}
	regions := 1 + st.Rng.Intn(maxRegions)
	per := frac / float64(regions)
	for i := 0; i < regions; i++ {
		st.rewriteRegion(e, per, zoneFrac)
	}
}

// Directories. Real churn clusters: logs, caches and active projects live
// together, cold archives live together. fillDirs groups a stream's
// objects into directories that share one volatility, so most dedup
// segments stay stable across backups (which MinHash encryption's storage
// efficiency depends on, Section 6.1), while volatile directories sit
// between stable ones throughout the stream, so global stream positions
// still shift between backups.

// fillDirs grows s by approximately targetBytes of objects (see newObject)
// in new directories of about dirFiles objects each. Each directory draws
// one volatility (stableFrac of them immutable) that its objects share.
func (st *State) fillDirs(s *Stream, targetBytes, dirFiles int, hotFrac, reuseFrac, stableFrac float64) {
	var added, left, dir int
	var vol float64
	for added < targetBytes {
		if left == 0 {
			vol = st.drawVolatility(stableFrac)
			st.dirs++
			dir = st.dirs
			left = 1 + dirFiles/2 + st.Rng.Intn(dirFiles)
		}
		e := st.newObject(st.Cfg.MeanObjectBytes, hotFrac, reuseFrac)
		e.vol, e.dir = vol, dir
		s.extents = append(s.extents, e)
		left--
		added += e.bytes()
	}
}

// volatileDirs returns the [start, end) extent ranges of s's volatile
// directories, in stream order.
func (s *Stream) volatileDirs() [][2]int {
	var out [][2]int
	for i := 0; i < len(s.extents); {
		j := i + 1
		for j < len(s.extents) && s.extents[j].dir == s.extents[i].dir {
			j++
		}
		if s.extents[i].vol > 0 {
			out = append(out, [2]int{i, j})
		}
		i = j
	}
	return out
}

// deleteFromDir removes up to k objects from the most volatile directory
// of s: deletions cluster the way real cleanups do.
func (st *State) deleteFromDir(s *Stream, k int) {
	vol := s.volatileDirs()
	if len(vol) == 0 || k <= 0 {
		return
	}
	best := vol[0]
	for _, d := range vol[1:] {
		if s.extents[d[0]].vol > s.extents[best[0]].vol {
			best = d
		}
	}
	for n := best[1] - best[0]; k > 0 && n > 0; k, n = k-1, n-1 {
		j := best[0] + st.Rng.Intn(n)
		s.extents = append(s.extents[:j], s.extents[j+1:]...)
	}
}

// growDirs adds approximately targetBytes of new objects to s, all into
// one or two volatile directories (picked uniformly, possibly the same one
// twice) plus, a quarter of the time or when none is volatile, a new
// directory at the end of the stream: new data accumulates in a handful of
// active projects. Scattered insertions would move segment boundaries all
// over the stream and re-key far more MinHash segments than real
// workloads do.
func (st *State) growDirs(s *Stream, targetBytes int, hotFrac, reuseFrac float64) {
	type target struct {
		dir int
		vol float64
	}
	var targets []target
	if vol := s.volatileDirs(); len(vol) > 0 {
		pick := func() target {
			e := s.extents[vol[st.Rng.Intn(len(vol))][0]]
			return target{e.dir, e.vol}
		}
		targets = append(targets, pick())
		if len(vol) > 1 && st.Rng.Float64() < 0.5 {
			targets = append(targets, pick())
		}
	}
	if len(targets) == 0 || st.Rng.Float64() < 0.25 {
		st.dirs++
		targets = append(targets, target{st.dirs, st.Rng.ExpFloat64() + 0.05})
	}
	for added := 0; added < targetBytes; {
		t := targets[st.Rng.Intn(len(targets))]
		e := st.newObject(st.Cfg.MeanObjectBytes, hotFrac, reuseFrac)
		e.vol, e.dir = t.vol, t.dir
		// After the directory's last object; a new directory's first
		// object goes to the end of the stream.
		i := len(s.extents)
		for i > 0 && s.extents[i-1].dir != t.dir {
			i--
		}
		if i == 0 {
			i = len(s.extents)
		}
		s.extents = append(s.extents, nil)
		copy(s.extents[i+1:], s.extents[i:])
		s.extents[i] = e
		added += e.bytes()
	}
}

// shuffleDirs moves approximately frac of each volatile directory's
// objects to a random position within the same directory (renames and
// moves inside a working directory). The stable backbone never moves.
func (st *State) shuffleDirs(s *Stream, frac float64) {
	for _, d := range s.volatileDirs() {
		objs := s.extents[d[0]:d[1]]
		if len(objs) < 2 {
			continue
		}
		k := int(float64(len(objs))*frac + 0.5)
		for i := 0; i < k; i++ {
			a, b := st.Rng.Intn(len(objs)), st.Rng.Intn(len(objs))
			e := objs[a]
			if a < b {
				copy(objs[a:b], objs[a+1:b+1])
			} else {
				copy(objs[b+1:a+1], objs[b:a])
			}
			objs[b] = e
		}
	}
}
