package attack

import (
	"io"
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

// counts is a value-struct frequency map — one neighbor-table row L_X[X] /
// R_X[X] of the paper. Rows are small (backup streams are local).
type counts map[fphash.Fingerprint]stat

// bump increments the count for fp, recording position pos on first sight.
func (c counts) bump(fp fphash.Fingerprint, pos int) {
	if s, ok := c[fp]; ok {
		s.count++
		c[fp] = s
		return
	}
	c[fp] = stat{count: 1, first: int32(pos)}
}

// flatInto flattens a neighbor row into rankable entries appended to
// buf[:0], resolving each neighbor's chunk size from the stream's
// sharded frequency table. The walk reuses two grow-only buffers across
// its iterations (four flattens per iteration), which is safe because
// frequency analysis only sorts the entries in place and returns fresh
// pairs — nothing aliases the buffer after the call.
func (c counts) flatInto(buf []freqEntry, sizes *tables) []freqEntry {
	out := buf[:0]
	for fp, s := range c {
		out = append(out, freqEntry{fp: fp, stat: s, size: sizes.sizeOf(fp)})
	}
	return out
}

// neighborShard maps each chunk of one fingerprint shard to the
// co-occurrence counts of its left (or right) neighbors.
type neighborShard map[fphash.Fingerprint]counts

// neighborRowHint sizes newly created neighbor rows: most chunks co-occur
// with a handful of distinct neighbors.
const neighborRowHint = 4

// tables holds one stream's counted state, sharded by fingerprint prefix
// (fphash.Fingerprint.Shard — the same lock-free partitioning key as the
// dedup store): per-shard flat frequency arenas and per-shard L/R
// neighbor tables. The merged view equals one unsharded table counted
// serially, which is why attack results are independent of the shard and
// worker counts.
type tables struct {
	shards int
	freq   []freqShard
	l, r   []neighborShard
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

func (t *tables) has(fp fphash.Fingerprint) bool {
	_, ok := t.freq[fp.Shard(t.shards)].idx[fp]
	return ok
}

func (t *tables) sizeOf(fp fphash.Fingerprint) uint32 {
	s := &t.freq[fp.Shard(t.shards)]
	if i, ok := s.idx[fp]; ok {
		return s.entries[i].size
	}
	return 0
}

// unique returns the number of distinct fingerprints counted.
func (t *tables) unique() int {
	n := 0
	for i := range t.freq {
		n += len(t.freq[i].entries)
	}
	return n
}

// flatAll concatenates every shard's arena into one rankable slice. The
// concatenation order is irrelevant: ranking uses a total order (count,
// then position where enabled, then fingerprint), so the ranked result is
// the same at every shard count.
func (t *tables) flatAll() []freqEntry {
	out := make([]freqEntry, 0, t.unique())
	for i := range t.freq {
		out = append(out, t.freq[i].entries...)
	}
	return out
}

// lrow / rrow return a chunk's left / right neighbor row (nil for a chunk
// with no recorded neighbors; counts(nil).flat is empty).
func (t *tables) lrow(fp fphash.Fingerprint) counts {
	if t.l == nil {
		return nil
	}
	return t.l[fp.Shard(t.shards)][fp]
}

func (t *tables) rrow(fp fphash.Fingerprint) counts {
	if t.r == nil {
		return nil
	}
	return t.r[fp.Shard(t.shards)][fp]
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

// countNeighbors runs the second counting pass: per-shard left/right
// neighbor co-occurrence rows. An adjacent pair (left, cur) at position
// pos contributes to L[cur][left] on cur's shard and R[left][cur] on
// left's shard — each row is owned by exactly one worker. The pass is
// separate from countFreq so the basic attack (frequencies only) never
// pays for neighbor tables, and so the neighbor maps can be pre-sized
// from the first pass's unique counts.
func (t *tables) countNeighbors(src ChunkSource, workers int) error {
	t.l = make([]neighborShard, t.shards)
	t.r = make([]neighborShard, t.shards)
	for i := range t.l {
		t.l[i] = make(neighborShard, len(t.freq[i].entries))
		t.r[i] = make(neighborShard, len(t.freq[i].entries))
	}
	w := workersFor(workers, t.shards)
	return scan(src, w, func(worker int, refs []trace.ChunkRef, base int, prev trace.ChunkRef) {
		for j := range refs {
			pos := base + j
			if pos == 0 {
				continue // the first chunk of the stream has no left neighbor
			}
			left := prev.FP
			if j > 0 {
				left = refs[j-1].FP
			}
			cur := refs[j].FP
			if sh := cur.Shard(t.shards); sh%w == worker {
				row := t.l[sh][cur]
				if row == nil {
					row = make(counts, neighborRowHint)
					t.l[sh][cur] = row
				}
				row.bump(left, pos)
			}
			if sh := left.Shard(t.shards); sh%w == worker {
				row := t.r[sh][left]
				if row == nil {
					row = make(counts, neighborRowHint)
					t.r[sh][left] = row
				}
				row.bump(cur, pos)
			}
		}
	})
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

// buildTables counts one stream: always the frequency pass, plus the
// neighbor pass when the attack walks locality.
func buildTables(src ChunkSource, p Params, neighbors bool) (*tables, error) {
	var hint int64
	if c, ok := src.(ChunkCounter); ok {
		hint = c.ChunkCount()
	}
	t := newTables(p.Shards, hint)
	if err := t.countFreq(src, p.Workers); err != nil {
		return nil, err
	}
	if neighbors {
		if err := t.countNeighbors(src, p.Workers); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// buildTablePair counts the ciphertext and plaintext streams
// concurrently — together they are the setup cost of every attack run.
func buildTablePair(c, m ChunkSource, p Params, neighbors bool) (tc, tm *tables, err error) {
	var merr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm, merr = buildTables(m, p, neighbors)
	}()
	tc, err = buildTables(c, p, neighbors)
	<-done
	if err == nil {
		err = merr
	}
	if err != nil {
		return nil, nil, err
	}
	return tc, tm, nil
}
