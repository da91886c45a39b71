package attack

import (
	"cmp"
	"errors"
	"io"
	"slices"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// stat is one chunk's (or neighbor pair's) frequency record: its
// occurrence count and the stream position of its first occurrence (for
// tie-breaking).
type stat struct {
	count int32
	first int32
}

// freqEntry is one chunk with its frequency record and size (for the
// advanced attack's size classification).
type freqEntry struct {
	fp   fphash.Fingerprint
	stat stat
	size uint32
}

// pairEntry is one distinct adjacent pair (left, cur) of dense chunk
// ids and its frequency record (the position is that of cur at the
// pair's first occurrence). Its count serves both neighbour rows: the
// pair is one occurrence of left in L[cur] and one of cur in R[left].
type pairEntry struct {
	left, cur int32
	stat      stat
}

// nbr is one entry of a neighbour row: the neighbour's dense id and the
// pair's frequency record.
type nbr struct {
	id   int32
	stat stat
}

// rows is one neighbour table (L_X or R_X of the paper) in compressed
// sparse row form: the row of chunk x is nbrs[start[x]:start[x+1]],
// ranked in the run's matching order.
type rows struct {
	start []int32
	nbrs  []nbr
}

func (r *rows) row(x int32) []nbr { return r.nbrs[r.start[x]:r.start[x+1]] }

// rowOrder is the matching order a locality run ranks its neighbour rows
// in: size class first when sizeAware, then rankCompare with posTies.
type rowOrder struct{ sizeAware, posTies bool }

// tables holds one stream's counted state: the frequency table, an
// arena of every unique chunk in first-occurrence order whose index is
// the chunk's dense id, plus the fingerprint-to-id map; and, for the
// locality attacks, the L/R neighbour rows over dense ids.
type tables struct {
	idx  map[fphash.Fingerprint]int32
	ents []freqEntry
	l, r rows
}

// presizeCapRefs bounds how much table capacity a source's length hint
// may reserve up front. The hint counts stream references including
// duplicates, while the tables only ever hold unique chunks — on a
// dedup-heavy trace far larger than RAM, pre-sizing by the raw stream
// length would allocate O(stream) memory before counting a single chunk
// and defeat the engine's bounded-memory design. Past the cap the
// tables grow incrementally, whose amortized cost is noise at that
// scale.
const presizeCapRefs = 1 << 20

// batchRefs is the scan's read size: at 16 bytes per ref a batch is
// 64 KiB, small enough to stay cache-resident.
const batchRefs = 4096

// scan streams the source once, in stream order, handing each read
// batch to process; an error from process ends the scan.
func scan(src ChunkSource, process func(refs []trace.ChunkRef) error) error {
	r, err := src.Open()
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]trace.ChunkRef, batchRefs)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if perr := process(buf[:n]); perr != nil {
				return perr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrNoProgress
		}
	}
}

// countFreq runs the first counting pass: chunk frequencies,
// first-occurrence positions, and sizes (recorded at first occurrence).
// A source's length hint (0 = unknown) pre-sizes the table, capped so a
// huge hint cannot balloon memory.
func countFreq(src ChunkSource) (*tables, error) {
	var hint int64
	if c, ok := src.(ChunkCounter); ok {
		hint = min(c.ChunkCount(), presizeCapRefs)
	}
	t := &tables{idx: make(map[fphash.Fingerprint]int32, hint), ents: make([]freqEntry, 0, hint)}
	var pos int32
	err := scan(src, func(refs []trace.ChunkRef) error {
		for _, r := range refs {
			if i, ok := t.idx[r.FP]; ok {
				t.ents[i].stat.count++
			} else {
				t.idx[r.FP] = int32(len(t.ents))
				t.ents = append(t.ents, freqEntry{fp: r.FP, stat: stat{count: 1, first: pos}, size: r.Size})
			}
			pos++
		}
		return nil
	})
	return t, err
}

// errReplay reports a source whose second pass yields a chunk its first
// pass did not: a ChunkSource must replay the same stream on every Open.
var errReplay = errors.New("attack: chunk source replayed a different stream")

// countNeighbors runs the second counting pass: every adjacent pair
// (left, cur) of dense chunk ids, counted once in a flat arena keyed by
// the packed ids. The pass is separate from countFreq so the basic attack
// (frequencies only) never pays for it, so that every chunk already has
// its dense id, and so the pair table can be pre-sized from the first
// pass's unique count.
func (t *tables) countNeighbors(src ChunkSource) ([]pairEntry, error) {
	idx := make(map[uint64]int32, len(t.ents))
	pairs := make([]pairEntry, 0, len(t.ents))
	var pos int32
	left := int32(-1) // the first chunk of the stream has no left neighbour
	err := scan(src, func(refs []trace.ChunkRef) error {
		for _, r := range refs {
			cur, ok := t.idx[r.FP]
			if !ok {
				return errReplay
			}
			if left >= 0 {
				k := uint64(uint32(left))<<32 | uint64(uint32(cur))
				if i, ok := idx[k]; ok {
					pairs[i].stat.count++
				} else {
					idx[k] = int32(len(pairs))
					pairs = append(pairs, pairEntry{left: left, cur: cur, stat: stat{count: 1, first: pos}})
				}
			}
			left = cur
			pos++
		}
		return nil
	})
	return pairs, err
}

// buildRows buckets the counted pairs into the L and R rows and ranks
// every row once in order: L[cur] holds each left neighbour of cur and
// R[left] each right neighbour of left, with the pair's count and first
// position.
func (t *tables) buildRows(pairs []pairEntry, order rowOrder) {
	n := len(t.ents)
	t.l.start = make([]int32, n+1)
	t.r.start = make([]int32, n+1)
	for _, e := range pairs {
		t.l.start[e.cur+1]++
		t.r.start[e.left+1]++
	}
	for x := 0; x < n; x++ {
		t.l.start[x+1] += t.l.start[x]
		t.r.start[x+1] += t.r.start[x]
	}
	t.l.nbrs = make([]nbr, len(pairs))
	t.r.nbrs = make([]nbr, len(pairs))
	lnext := slices.Clone(t.l.start[:n])
	rnext := slices.Clone(t.r.start[:n])
	for _, e := range pairs {
		t.l.nbrs[lnext[e.cur]] = nbr{id: e.left, stat: e.stat}
		lnext[e.cur]++
		t.r.nbrs[rnext[e.left]] = nbr{id: e.cur, stat: e.stat}
		rnext[e.left]++
	}

	ents := t.ents
	byRank := func(a, b nbr) int {
		ea, eb := &ents[a.id], &ents[b.id]
		if order.sizeAware {
			if d := cmp.Compare(blocks(ea.size), blocks(eb.size)); d != 0 {
				return d
			}
		}
		return rankCompare(freqEntry{fp: ea.fp, stat: a.stat}, freqEntry{fp: eb.fp, stat: b.stat}, order.posTies)
	}
	for _, tab := range [2]*rows{&t.l, &t.r} {
		for x := 0; x < n; x++ {
			if row := tab.row(int32(x)); len(row) > 1 {
				slices.SortFunc(row, byRank)
			}
		}
	}
}

// buildTables counts one stream: always the frequency pass, plus, when
// the attack walks locality (order != nil), the neighbour pass and the
// ranked rows.
func buildTables(src ChunkSource, order *rowOrder) (*tables, error) {
	t, err := countFreq(src)
	if err != nil {
		return nil, err
	}
	if order != nil {
		pairs, err := t.countNeighbors(src)
		if err != nil {
			return nil, err
		}
		t.buildRows(pairs, *order)
	}
	return t, nil
}

// buildTablePair counts the ciphertext and plaintext streams
// concurrently — together they are the setup cost of every attack run.
func buildTablePair(c, m ChunkSource, order *rowOrder) (tc, tm *tables, err error) {
	var merr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm, merr = buildTables(m, order)
	}()
	tc, err = buildTables(c, order)
	<-done
	if err == nil {
		err = merr
	}
	if err != nil {
		return nil, nil, err
	}
	return tc, tm, nil
}
