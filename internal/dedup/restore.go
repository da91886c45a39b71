package dedup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"freqdedup/internal/container"
	"freqdedup/internal/mle"
)

// restoreSlabBytes is the plaintext a restore decrypts and writes at a
// time: runs of consecutive recipe entries are decrypted into one pooled
// buffer of this size and handed to the writer with a single Write.
const restoreSlabBytes = 1 << 20

// Restore reconstructs the original stream described by recipe, writing it
// to w. Chunks are fetched by ciphertext fingerprint and decrypted with
// the per-chunk keys; recipe order restores the pre-scrambling layout.
//
// Restore is planned from the recipe, which tells it its entire future:
// every entry's container is resolved up front, Config.Workers goroutines
// prefetch the needed containers in first-use order — each read whole and
// CRC-verified, once — into a byte-bounded window, runs of consecutive
// entries are decrypted into MiB-scale pooled slabs, and the slabs are
// written in stream order, one Write each. A container leaves the window
// the moment its last referencing entry is decrypted, so memory follows
// the stream's live set, not the snapshot's size. The window's budget
// comes from the store's geometry (twice shards × container capacity: the
// containers a stream-ordered backup had open at once, double-buffered);
// a restore whose live set exceeds it evicts the container whose next use
// is farthest away and reads that one again when the stream returns to
// it. The restored bytes are identical at every worker count.
func (c *Client) Restore(recipe *mle.Recipe, w io.Writer) error {
	return c.RestoreContext(context.Background(), recipe, w)
}

// RestoreContext is Restore with cancellation: when ctx is cancelled the
// restore stops promptly — no further container is read or slab
// decrypted, the writer stops writing, and every pooled plaintext buffer
// still in flight is handed back to the pool before RestoreContext returns
// ctx.Err(). Bytes written to w before the cancellation stay written; the
// output is a strict prefix of the stream.
func (c *Client) RestoreContext(ctx context.Context, recipe *mle.Recipe, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.store == nil {
		return errors.New("dedup: restore: client has no store (NewSinkClient)")
	}
	if len(recipe.Entries) == 0 {
		return nil
	}
	plan, err := c.planRestore(recipe.Entries)
	if err != nil {
		return err
	}
	return c.runRestore(ctx, plan, w)
}

// restorePlan is what a restore knows before it reads a byte: where every
// entry lives and, per container, every entry that will need it.
type restorePlan struct {
	entries []mle.RecipeEntry
	// cidx[i] indexes containers for entry i's chunk and lidx[i] is the
	// chunk's position inside it. cidx[i] < 0 marks an entry the index
	// could not resolve (degraded mode only).
	cidx, lidx []int
	// containers lists the referenced containers in first-use order.
	containers []planContainer
	// nominal bounds one container's data bytes from above — the store's
	// container capacity, or the largest chunk when one outgrew it (such
	// a chunk sits alone in its container). It is what an in-flight read
	// is assumed to cost until its real size is known.
	nominal int64
}

// planContainer is one container of the plan and the recipe entries stored
// in it, ascending: its first, every next and its last use.
type planContainer struct {
	ref  containerRef
	uses []int
}

// planRestore resolves every entry's location. Locations are verified
// against the fingerprint at use (a concurrent GC may move chunks) with a
// point-lookup fallback.
func (c *Client) planRestore(entries []mle.RecipeEntry) (*restorePlan, error) {
	p := &restorePlan{
		entries: entries,
		cidx:    make([]int, len(entries)),
		lidx:    make([]int, len(entries)),
		nominal: int64(c.store.containerBytes),
	}
	byRef := make(map[containerRef]int)
	for i, e := range entries {
		if int64(e.Size) > p.nominal {
			p.nominal = int64(e.Size)
		}
		ref, loc, ok, err := c.store.locate(e.Fingerprint)
		if err != nil && !c.cfg.DegradedRestore {
			return nil, fmt.Errorf("dedup: restore: chunk %d: %w", i, err)
		}
		if !ok || err != nil {
			if !c.cfg.DegradedRestore {
				return nil, fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, ErrNotFound)
			}
			// Degraded mode: the entry's point lookup at decrypt time
			// re-checks the store and zero-fills.
			p.cidx[i] = -1
			continue
		}
		k, seen := byRef[ref]
		if !seen {
			k = len(p.containers)
			byRef[ref] = k
			p.containers = append(p.containers, planContainer{ref: ref})
		}
		p.cidx[i], p.lidx[i] = k, loc.Index
		p.containers[k].uses = append(p.containers[k].uses, i)
	}
	return p, nil
}

// restoreBudget is the window's byte budget: twice what a stream-ordered
// backup kept open at once (one container per shard), so the containers
// the stream is in and the ones it enters next fit together.
func (c *Client) restoreBudget() int64 {
	if c.windowBudget > 0 {
		return c.windowBudget
	}
	return 2 * int64(len(c.store.shards)) * int64(c.store.containerBytes)
}

// windowSlot is the window's state for one plan container. The
// coordinator goroutine owns it; workers never see it.
type windowSlot struct {
	entries []container.Entry // the container's chunks while held
	bytes   int64             // their data bytes, counted in retained while held
	held    bool              // read and not yet dropped
	// cached: at the admission frontier the container is in the window,
	// neither evicted nor past its last use. liveIdx is its index in
	// restoreRun.live while cached.
	cached  bool
	liveIdx int
	// next indexes the container's first use the frontier has not passed.
	next int
	// outstanding counts uses the frontier has passed that are not yet
	// decrypted; the container's bytes cannot be dropped before it is 0.
	outstanding int
}

// restoreSlab is one decrypt job: a run of consecutive recipe entries,
// their resolved ciphertexts, and the pooled buffer they decrypt into.
type restoreSlab struct {
	seq        int
	start, end int      // recipe entries [start, end)
	offset     uint64   // stream offset of entry start
	bytes      int      // plaintext length
	cts        [][]byte // per entry; nil = resolve by point lookup
	buf        []byte
	lost       []LostRange
	err        error
}

// loadResult is one finished container read.
type loadResult struct {
	k       int
	entries []container.Entry
	err     error
}

// restoreRun is one restore's coordinator state. All of it belongs to the
// goroutine running runRestore: it advances the plan, hands reads and
// decrypts to the workers as self-contained jobs, and writes finished
// slabs in order.
//
// Two cursors walk the recipe. The admission frontier (adm) decides, entry
// by entry, that the entry's container is in the window — issuing its read
// on a miss and choosing what to evict when the budget is hit — and runs
// ahead of the slab builder (pos) for as long as reads are guaranteed to
// fit, which is the prefetch. Every decision it takes depends only on the
// plan and on container sizes, never on timing, so the sequence of reads
// is that of a farthest-next-use cache stepping through the recipe.
type restoreRun struct {
	c      *Client
	plan   *restorePlan
	w      io.Writer
	jobCtx context.Context // cancelled on the first error: queued jobs skip their work
	slots  []windowSlot
	budget int64

	adm, pos int
	live     []int // cached containers, the eviction candidates
	// retained is the data bytes of every held container, reserved is
	// nominal per read in flight, cachedBytes is the held part of live.
	retained, reserved, cachedBytes int64
	peak                            int64 // high-water mark of retained
	// syncLoad is the container being read with the frontier stopped
	// behind it because its size decides what to evict; -1 otherwise.
	syncLoad int

	cur       *restoreSlab // under construction
	nextSeq   int
	streamOff uint64 // stream offset of the next slab

	maxLoads, maxSlabs int // bounds on loadsOut, slabsOut
	loadsOut, slabsOut int // jobs handed out and not yet taken back
	jobs               chan func()
	loadsDone          chan loadResult
	slabsDone          chan *restoreSlab

	pending   map[int]*restoreSlab // decrypted, waiting for their turn
	nextWrite int
	lost      []LostRange
}

// runRestore executes the plan; see restoreRun.
func (c *Client) runRestore(ctx context.Context, plan *restorePlan, w io.Writer) error {
	workers := c.cfg.Workers // NewClient made it at least 1
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &restoreRun{
		c:        c,
		plan:     plan,
		slots:    make([]windowSlot, len(plan.containers)),
		budget:   c.restoreBudget(),
		syncLoad: -1,
		maxLoads: workers,
		maxSlabs: 2 * workers,
		pending:  make(map[int]*restoreSlab),
		jobCtx:   jobCtx,
		w:        w,
	}
	// Every channel holds the most its senders can have outstanding
	// (maxLoads reads + maxSlabs decrypts), so neither the coordinator
	// nor a worker ever blocks on a send.
	r.jobs = make(chan func(), r.maxLoads+r.maxSlabs)
	r.loadsDone = make(chan loadResult, r.maxLoads)
	r.slabsDone = make(chan *restoreSlab, r.maxSlabs)

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for job := range r.jobs {
				job()
			}
		}()
	}
	err := r.loop(ctx)
	if err != nil {
		// Stop the workers' remaining jobs short, then take back every
		// pooled buffer: in flight, decrypted but unwritten, and none is
		// left behind.
		cancel()
		for r.loadsOut > 0 || r.slabsOut > 0 {
			select {
			case <-r.loadsDone:
				r.loadsOut--
			case s := <-r.slabsDone:
				r.slabsOut--
				restoreBufPut(s.buf)
			}
		}
		for _, s := range r.pending {
			restoreBufPut(s.buf)
		}
	}
	close(r.jobs)
	wg.Wait()
	c.windowPeak = r.peak
	if err == nil && len(r.lost) > 0 {
		return &DegradedError{Ranges: r.lost}
	}
	return err
}

// loop drives the restore to completion or its first error.
func (r *restoreRun) loop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.advance()
		if r.pos == len(r.plan.entries) && r.cur == nil && r.slabsOut == 0 && len(r.pending) == 0 {
			return nil
		}
		if r.loadsOut == 0 && r.slabsOut == 0 {
			panic("dedup: restore scheduler stalled with nothing in flight")
		}
		select {
		case res := <-r.loadsDone:
			r.loadsOut--
			if err := r.loaded(res); err != nil {
				return err
			}
		case s := <-r.slabsDone:
			r.slabsOut--
			if err := r.decrypted(s); err != nil {
				return err
			}
		case <-ctx.Done():
		}
	}
}

// advance does everything that can be done without waiting: admit
// entries, issue reads, build and dispatch slabs.
func (r *restoreRun) advance() {
	n := len(r.plan.entries)
	for r.adm < n && r.syncLoad < 0 {
		k := r.plan.cidx[r.adm]
		if k >= 0 {
			s := &r.slots[k]
			if !s.cached && !r.admit(k) {
				break
			}
			s.next++
			s.outstanding++
			if s.next == len(r.plan.containers[k].uses) {
				r.uncache(k) // past its last use
			}
		}
		r.adm++
	}
	for r.pos < r.adm && r.slabsOut < r.maxSlabs {
		e := &r.plan.entries[r.pos]
		k := r.plan.cidx[r.pos]
		if k >= 0 && !r.slots[k].held {
			break // its read is still in flight
		}
		if r.cur != nil && r.cur.bytes+int(e.Size) > restoreSlabBytes {
			r.dispatch()
			continue
		}
		if r.cur == nil {
			r.cur = r.newSlab()
		}
		var ct []byte
		if k >= 0 {
			// A planned location can go stale (a GC pass moved survivors
			// mid-restore); the fingerprint decides.
			if ents, i := r.slots[k].entries, r.plan.lidx[r.pos]; i >= 0 && i < len(ents) && ents[i].FP == e.Fingerprint {
				ct = ents[i].Data
			}
		}
		r.cur.cts = append(r.cur.cts, ct)
		r.cur.bytes += int(e.Size)
		r.pos++
		r.cur.end = r.pos
	}
	// A slab ends where the builder has to wait, so what is ready decrypts
	// (and releases its containers) meanwhile.
	if r.cur != nil && r.slabsOut < r.maxSlabs {
		r.dispatch()
	}
}

// admit brings container k into the window for the entry at the frontier,
// or reports that it cannot yet.
func (r *restoreRun) admit(k int) bool {
	s := &r.slots[k]
	if s.held {
		// Evicted, with earlier uses still being decrypted: it is read
		// again once they are done, as if it had been dropped on eviction.
		return false
	}
	if r.loadsOut >= r.maxLoads {
		return false
	}
	if r.retained+r.reserved+r.plan.nominal > r.budget {
		// The read may not fit. What to evict depends on its size, so it
		// goes alone: nothing else in flight, the window within budget
		// (which may take decrypts still running), and the frontier stopped
		// until it is in.
		if r.reserved > 0 {
			return false
		}
		r.shrink(-1)
		if r.retained > r.budget {
			return false
		}
		r.syncLoad = k
	}
	s.cached, s.liveIdx = true, len(r.live)
	r.live = append(r.live, k)
	r.reserved += r.plan.nominal
	r.loadsOut++
	ref := r.plan.containers[k].ref
	r.jobs <- func() {
		res := loadResult{k: k, err: r.jobCtx.Err()}
		if res.err == nil {
			res.entries, res.err = r.c.store.readContainer(ref)
		}
		r.loadsDone <- res
	}
	return true
}

// loaded takes a finished read into the window.
func (r *restoreRun) loaded(res loadResult) error {
	switch {
	case res.err == nil:
	case errors.Is(res.err, container.ErrNotFound):
		// The planned container vanished (a concurrent GC compacted the
		// shard); every chunk is still live, so hold it empty and each
		// entry takes the point-lookup fallback.
	case r.c.cfg.DegradedRestore && lostable(res.err):
		// A corrupt container in degraded mode: hold it empty, so each
		// entry's point lookup decides its fate individually (it fails
		// the same way and zero-fills).
	default:
		ref := r.plan.containers[res.k].ref
		return fmt.Errorf("dedup: restore: container %d (shard %d): %w", ref.id, ref.shard, res.err)
	}
	s := &r.slots[res.k]
	s.entries, s.bytes = res.entries, 0
	for _, e := range res.entries {
		s.bytes += int64(len(e.Data))
	}
	s.held = true
	r.reserved -= r.plan.nominal
	r.retained += s.bytes
	if r.retained > r.peak {
		r.peak = r.retained
	}
	if s.cached {
		r.cachedBytes += s.bytes
	}
	if res.k == r.syncLoad {
		r.syncLoad = -1
		r.shrink(res.k)
	}
	r.drop(res.k)
	return nil
}

// shrink evicts cached containers, farthest next use first, until the
// cached bytes are within budget or only spare is left.
func (r *restoreRun) shrink(spare int) {
	for r.cachedBytes > r.budget {
		victim, far := -1, -1
		for _, k := range r.live {
			if k == spare {
				continue
			}
			if nu := r.plan.containers[k].uses[r.slots[k].next]; nu > far {
				victim, far = k, nu
			}
		}
		if victim < 0 {
			return
		}
		r.uncache(victim)
		r.drop(victim)
	}
}

// uncache takes k out of the cached set: evicted, or past its last use.
func (r *restoreRun) uncache(k int) {
	s := &r.slots[k]
	last := r.live[len(r.live)-1]
	r.live[s.liveIdx] = last
	r.slots[last].liveIdx = s.liveIdx
	r.live = r.live[:len(r.live)-1]
	s.cached = false
	if s.held {
		r.cachedBytes -= s.bytes
	}
}

// drop releases k's bytes if nothing needs them any more.
func (r *restoreRun) drop(k int) {
	s := &r.slots[k]
	if s.held && !s.cached && s.outstanding == 0 {
		r.retained -= s.bytes
		s.entries, s.held = nil, false
	}
}

// newSlab starts a slab at the builder's position.
func (r *restoreRun) newSlab() *restoreSlab {
	s := &restoreSlab{seq: r.nextSeq, start: r.pos, end: r.pos, offset: r.streamOff}
	r.nextSeq++
	return s
}

// dispatch hands the slab under construction to the workers.
func (r *restoreRun) dispatch() {
	s := r.cur
	r.cur = nil
	r.streamOff += uint64(s.bytes)
	s.buf = restoreBufGet(s.bytes)
	r.slabsOut++
	r.jobs <- func() {
		if s.err = r.jobCtx.Err(); s.err == nil {
			r.c.decryptSlab(r.plan.entries, s)
		}
		r.slabsDone <- s
	}
}

// decryptSlab fills s.buf with the plaintext of the slab's entries. In
// degraded mode unrecoverable chunks become zeros with their ranges
// recorded instead of failing the slab.
func (c *Client) decryptSlab(entries []mle.RecipeEntry, s *restoreSlab) {
	off := 0
	for i := s.start; i < s.end; i++ {
		e := &entries[i]
		dst := s.buf[off : off+int(e.Size)]
		ct := s.cts[i-s.start]
		if ct == nil {
			// The planned location went stale or was never resolved; fall
			// back to a point lookup.
			var err error
			ct, err = c.store.Get(e.Fingerprint)
			if err != nil {
				if !c.cfg.DegradedRestore || !lostable(err) {
					s.err = fmt.Errorf("dedup: restore: chunk %d (%v): %w", i, e.Fingerprint, err)
					return
				}
				zeroFill(dst)
				s.lost = append(s.lost, LostRange{Offset: s.offset + uint64(off), Length: uint64(e.Size), Fingerprint: e.Fingerprint})
				off += int(e.Size)
				continue
			}
		}
		if len(ct) != int(e.Size) {
			s.err = fmt.Errorf("dedup: restore: chunk %d size %d, recipe says %d", i, len(ct), e.Size)
			return
		}
		mle.DecryptDeterministicInto(e.Key, ct, dst)
		off += int(e.Size)
	}
}

// decrypted takes a finished slab: its containers lose their uses, and
// every slab whose turn has come is written.
func (r *restoreRun) decrypted(s *restoreSlab) error {
	if s.err != nil {
		restoreBufPut(s.buf)
		return s.err
	}
	for i := s.start; i < s.end; i++ {
		if k := r.plan.cidx[i]; k >= 0 {
			r.slots[k].outstanding--
			r.drop(k)
		}
	}
	r.pending[s.seq] = s
	for {
		s, ok := r.pending[r.nextWrite]
		if !ok {
			return nil
		}
		delete(r.pending, r.nextWrite)
		r.nextWrite++
		_, err := r.w.Write(s.buf)
		restoreBufPut(s.buf)
		if err != nil {
			return fmt.Errorf("dedup: restore: write: %w", err)
		}
		// Slabs are written in stream order, so lost ranges accumulate in
		// stream order too.
		r.lost = append(r.lost, s.lost...)
	}
}

// restorePool recycles slab buffers across restores, so a long restore
// allocates a steady-state set of buffers instead of one per slab. Every
// buffer holds at least a full slab (a larger one only for a chunk that
// outgrew it, pow2-rounded so capacities cluster).
var restorePool sync.Pool

// restoreBufsOutstanding counts pool buffers currently handed out; the
// drain-on-error tests assert it returns to its baseline after a failed
// restore (no buffer is abandoned).
var restoreBufsOutstanding atomic.Int64

// RestoreBufsOutstanding reports how many pooled restore buffers are
// currently handed out. It is a test hook: harnesses (the crash-point
// explorer, the drain-on-error tests) assert it returns to its baseline
// after failed and degraded restores, proving no pooled buffer leaks.
func RestoreBufsOutstanding() int64 { return restoreBufsOutstanding.Load() }

// restoreBufGet returns a pooled buffer of length n.
func restoreBufGet(n int) []byte {
	restoreBufsOutstanding.Add(1)
	if v := restorePool.Get(); v != nil {
		buf := *(v.(*[]byte))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	capacity := restoreSlabBytes
	if n > capacity {
		capacity = 1 << bits.Len(uint(n-1))
	}
	return make([]byte, n, capacity)
}

// restoreBufPut returns a buffer to the pool.
func restoreBufPut(buf []byte) {
	restoreBufsOutstanding.Add(-1)
	b := buf[:0]
	restorePool.Put(&b)
}
