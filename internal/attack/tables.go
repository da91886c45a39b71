package attack

import (
	"cmp"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"

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

// freqShard is one fingerprint-prefix shard of a whole-stream frequency
// table: a flat entry arena in first-occurrence order plus a
// fingerprint-to-index map.
type freqShard struct {
	idx     map[fphash.Fingerprint]int32
	entries []freqEntry
}

// bump counts one occurrence of fp at global stream position pos.
// Size is recorded at first occurrence (first-wins), so a chunk's size
// does not depend on how the stream is sharded.
func (s *freqShard) bump(fp fphash.Fingerprint, pos int, size uint32) {
	if i, ok := s.idx[fp]; ok {
		s.entries[i].stat.count++
		return
	}
	s.idx[fp] = int32(len(s.entries))
	s.entries = append(s.entries, freqEntry{
		fp:   fp,
		stat: stat{count: 1, first: int32(pos)},
		size: size,
	})
}

// pairShard is one shard of pass 2's adjacent-pair table: a flat arena
// of distinct pairs (left, cur) in first-occurrence order plus a map from
// the pair's packed dense ids to its arena index. A pair lives on cur's
// shard. Its count serves both neighbour rows: the pair is one
// occurrence of left in L[cur] and one of cur in R[left].
type pairShard struct {
	idx     map[uint64]int32
	entries []pairEntry
}

// pairEntry is one distinct adjacent pair of dense chunk ids and its
// frequency record (the position is that of cur at the pair's first
// occurrence).
type pairEntry struct {
	left, cur int32
	stat      stat
}

// bump counts one occurrence of the pair (left, cur) at position pos.
func (s *pairShard) bump(left, cur int32, pos int) {
	k := uint64(uint32(left))<<32 | uint64(uint32(cur))
	if i, ok := s.idx[k]; ok {
		s.entries[i].stat.count++
		return
	}
	s.idx[k] = int32(len(s.entries))
	s.entries = append(s.entries, pairEntry{left: left, cur: cur, stat: stat{count: 1, first: int32(pos)}})
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

// tables holds one stream's counted state, sharded by fingerprint prefix
// (fphash.Fingerprint.Shard — the same lock-free partitioning key as the
// dedup store): per-shard flat frequency arenas and, for the locality
// attacks, the L/R neighbour rows over dense chunk ids. A chunk's dense
// id is its index in ents, the shard arenas concatenated in shard order.
// Ranked results equal one unsharded table counted serially, which is
// why attack results are independent of the shard and worker counts.
type tables struct {
	shards int
	freq   []freqShard
	off    []int32     // dense id of each shard's first arena entry
	ents   []freqEntry // every unique chunk by dense id
	l, r   rows
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

// newTables pre-sizes each shard's frequency table for a stream of hint
// chunks (0 = unknown): fingerprints distribute uniformly over shards,
// so hint/shards entries per shard avoids incremental map rehashes and
// arena growth, capped so a huge hint cannot balloon memory.
func newTables(shards int, hint int64) *tables {
	if hint > presizeCapRefs {
		hint = presizeCapRefs
	}
	per := int(hint) / shards
	t := &tables{shards: shards, freq: make([]freqShard, shards)}
	for i := range t.freq {
		t.freq[i].idx = make(map[fphash.Fingerprint]int32, per)
		if per > 0 {
			t.freq[i].entries = make([]freqEntry, 0, per)
		}
	}
	return t
}

// id returns the dense id of fp (valid once the neighbour pass has set
// the shard offsets).
func (t *tables) id(fp fphash.Fingerprint) (int32, bool) {
	sh := fp.Shard(t.shards)
	i, ok := t.freq[sh].idx[fp]
	return t.off[sh] + i, ok
}

// unique returns the number of distinct fingerprints counted.
func (t *tables) unique() int {
	n := 0
	for i := range t.freq {
		n += len(t.freq[i].entries)
	}
	return n
}

// flatAll concatenates every shard's arena into one rankable slice, in
// dense-id order. The order is irrelevant to ranking, which uses a total
// order (count, then position where enabled, then fingerprint), so the
// ranked result is the same at every shard count.
func (t *tables) flatAll() []freqEntry {
	out := make([]freqEntry, 0, t.unique())
	for i := range t.freq {
		out = append(out, t.freq[i].entries...)
	}
	return out
}

// batchRefs is the streaming scan's batch size: large enough that the
// per-batch broadcast to the counting workers amortizes to nothing, small
// enough that a few in-flight batches stay cache-resident. At 16 bytes
// per ref a batch is 64 KiB.
const batchRefs = 4096

// countBatch is one scanned batch broadcast to every counting worker.
// Workers only read it; the last one to finish recycles the buffer.
type countBatch struct {
	refs []trace.ChunkRef
	n    int            // live prefix of refs
	base int            // global stream position of refs[0]
	prev trace.ChunkRef // the chunk before refs[0] (valid when base > 0)
	left atomic.Int32   // workers yet to process this batch
}

// scan streams the source once, feeding every batch (with its global base
// position and preceding chunk) to workers goroutines. Each worker sees
// every batch in stream order and is expected to process only the
// fingerprint shards it owns, so no locks are needed and per-shard state
// observes the stream strictly in order — which is what keeps
// first-occurrence positions and first-wins sizes identical to a serial
// count. With one worker the scan runs inline with no goroutines.
func scan(src ChunkSource, workers int, process func(worker int, refs []trace.ChunkRef, base int, prev trace.ChunkRef)) error {
	r, err := src.Open()
	if err != nil {
		return err
	}
	defer r.Close()

	if workers <= 1 {
		buf := make([]trace.ChunkRef, batchRefs)
		base := 0
		var prev trace.ChunkRef
		for {
			n, err := r.Read(buf)
			if n > 0 {
				process(0, buf[:n], base, prev)
				prev = buf[n-1]
				base += n
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

	free := make(chan *countBatch, workers+2)
	for i := 0; i < workers+2; i++ {
		free <- &countBatch{refs: make([]trace.ChunkRef, batchRefs)}
	}
	chans := make([]chan *countBatch, workers)
	for w := range chans {
		chans[w] = make(chan *countBatch, 2)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for b := range chans[w] {
				process(w, b.refs[:b.n], b.base, b.prev)
				if b.left.Add(-1) == 0 {
					free <- b
				}
			}
		}(w)
	}

	base := 0
	var prev trace.ChunkRef
	var scanErr error
	for {
		b := <-free
		// Fill the whole batch before broadcasting: short reads would
		// multiply the broadcast overhead.
		n := 0
		var err error
		for n < batchRefs && err == nil {
			var k int
			k, err = r.Read(b.refs[n:batchRefs])
			n += k
			if k == 0 && err == nil {
				err = io.ErrNoProgress
			}
		}
		if n > 0 {
			b.n = n
			b.base = base
			b.prev = prev
			b.left.Store(int32(workers))
			prev = b.refs[n-1]
			base += n
			for w := range chans {
				chans[w] <- b
			}
		}
		if err != nil {
			if err != io.EOF {
				scanErr = err
			}
			break
		}
	}
	for w := range chans {
		close(chans[w])
	}
	wg.Wait()
	return scanErr
}

// countFreq runs the first counting pass: per-shard chunk frequencies,
// first-occurrence positions, and first-wins sizes.
func (t *tables) countFreq(src ChunkSource, workers int) error {
	w := workersFor(workers, t.shards)
	return scan(src, w, func(worker int, refs []trace.ChunkRef, base int, prev trace.ChunkRef) {
		for j := range refs {
			sh := refs[j].FP.Shard(t.shards)
			if sh%w != worker {
				continue
			}
			t.freq[sh].bump(refs[j].FP, base+j, refs[j].Size)
		}
	})
}

// errReplay reports a source whose second pass yields a chunk its first
// pass did not: a ChunkSource must replay the same stream on every Open.
var errReplay = errors.New("attack: chunk source replayed a different stream")

// countNeighbors runs the second counting pass: every adjacent pair
// (left, cur) of dense chunk ids is counted once, on cur's shard, so each
// pair is owned by exactly one worker. The pass is separate from
// countFreq so the basic attack (frequencies only) never pays for it, so
// that every chunk already has its dense id, and so the pair tables can
// be pre-sized from the first pass's unique counts.
func (t *tables) countNeighbors(src ChunkSource, workers int) ([]pairShard, error) {
	t.ents = t.flatAll()
	t.off = make([]int32, t.shards)
	pairs := make([]pairShard, t.shards)
	var n int32
	for i := range pairs {
		t.off[i] = n
		n += int32(len(t.freq[i].entries))
		pairs[i].idx = make(map[uint64]int32, len(t.freq[i].entries))
		pairs[i].entries = make([]pairEntry, 0, len(t.freq[i].entries))
	}
	w := workersFor(workers, t.shards)
	bad := make([]bool, w)
	err := scan(src, w, func(worker int, refs []trace.ChunkRef, base int, prev trace.ChunkRef) {
		for j := range refs {
			pos := base + j
			cur := refs[j].FP
			sh := cur.Shard(t.shards)
			if pos == 0 || sh%w != worker {
				continue // the first chunk of the stream has no left neighbour
			}
			left := prev.FP
			if j > 0 {
				left = refs[j-1].FP
			}
			cid, okc := t.id(cur)
			lid, okl := t.id(left)
			if !okc || !okl {
				bad[worker] = true
				return
			}
			pairs[sh].bump(lid, cid, pos)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		if b {
			return nil, errReplay
		}
	}
	return pairs, nil
}

// buildRows buckets the counted pairs into the L and R rows and ranks
// every row once in order: L[cur] holds each left neighbour of cur and
// R[left] each right neighbour of left, with the pair's count and first
// position.
func (t *tables) buildRows(pairs []pairShard, order rowOrder) {
	n := len(t.ents)
	t.l.start = make([]int32, n+1)
	t.r.start = make([]int32, n+1)
	total := 0
	for i := range pairs {
		total += len(pairs[i].entries)
		for _, e := range pairs[i].entries {
			t.l.start[e.cur+1]++
			t.r.start[e.left+1]++
		}
	}
	for x := 0; x < n; x++ {
		t.l.start[x+1] += t.l.start[x]
		t.r.start[x+1] += t.r.start[x]
	}
	t.l.nbrs = make([]nbr, total)
	t.r.nbrs = make([]nbr, total)
	lnext := slices.Clone(t.l.start[:n])
	rnext := slices.Clone(t.r.start[:n])
	for i := range pairs {
		for _, e := range pairs[i].entries {
			t.l.nbrs[lnext[e.cur]] = nbr{id: e.left, stat: e.stat}
			lnext[e.cur]++
			t.r.nbrs[rnext[e.left]] = nbr{id: e.cur, stat: e.stat}
			rnext[e.left]++
		}
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

// workersFor caps the worker fan-out at the shard count (a shard is owned
// by exactly one worker, so extra workers would idle).
func workersFor(workers, shards int) int {
	if workers > shards {
		return shards
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// buildTables counts one stream: always the frequency pass, plus, when
// the attack walks locality (order != nil), the neighbour pass and the
// ranked rows.
func buildTables(src ChunkSource, p Params, order *rowOrder) (*tables, error) {
	var hint int64
	if c, ok := src.(ChunkCounter); ok {
		hint = c.ChunkCount()
	}
	t := newTables(p.Shards, hint)
	if err := t.countFreq(src, p.Workers); err != nil {
		return nil, err
	}
	if order != nil {
		pairs, err := t.countNeighbors(src, p.Workers)
		if err != nil {
			return nil, err
		}
		t.buildRows(pairs, *order)
	}
	return t, nil
}

// buildTablePair counts the ciphertext and plaintext streams
// concurrently — together they are the setup cost of every attack run.
func buildTablePair(c, m ChunkSource, p Params, order *rowOrder) (tc, tm *tables, err error) {
	var merr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm, merr = buildTables(m, p, order)
	}()
	tc, err = buildTables(c, p, order)
	<-done
	if err == nil {
		err = merr
	}
	if err != nil {
		return nil, nil, err
	}
	return tc, tm, nil
}
