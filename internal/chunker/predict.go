package chunker

import (
	"crypto/sha256"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// NextRun cuts the next chunks where a parent predicts them, and returns
// how many it cut into out. Chunk i of the run is predicted sizes[i]
// bytes long with SHA-256 sums[i], the sum of a chunk that a chunker with
// the same Params cut; the run is as long as the shortest of sizes, sums
// and out. NextRun cuts the longest prefix of the run whose cuts are the
// ones Next would make, and consumes nothing past it: when it cuts fewer
// than the run, chunk n is not Next's cut, and the caller calls Next.
//
// A parent chunk of n bytes was cut at the first boundary in [Min, n], so
// its positions Min to n-1 are no boundaries, and if the next n bytes
// hash to its sum, neither are they here: the cut at n is Next's if n is
// all Next may take (Max, or the rest of the stream) or if the window
// ending at n is a boundary. So a chunk is Next's cut exactly when it
// passes that cheap boundary test and its hash matches, and a run of
// chunks is, chunk by chunk, when every chunk before it is. NextRun takes
// the run in groups that the lookahead holds, up to Max bytes past the
// start of the group's last chunk. It tests each chunk's end serially,
// stopping at the first that fails. Then the caller's goroutine and
// helpers, one for each further core (see runCheck), copy the chunks that
// passed into their own buffers and compare their SHA-256s, in ascending
// order, stopping at the first mismatch. A group cut whole is followed by
// the next one.
//
// The bytes NextRun cuts are never scanned, and the Next calls right
// after a cut here scan their own positions only, serially. NextRun
// returns io.EOF, cutting nothing, when no bytes remain, and a read error
// with the chunks it cut before the read.
func (c *ContentDefined) NextRun(sizes []int, sums [][sha256.Size]byte, out []Chunk) (int, error) {
	sizes = sizes[:min(len(sizes), len(sums), len(out))]
	cut := 0
	for cut < len(sizes) {
		room := c.groupRoom()
		group, span, last := 0, 0, 0
		for _, n := range sizes[cut:] {
			if n < 1 || n > c.p.Max || span+c.p.Max > room || group == maxGroup {
				break
			}
			group, span, last = group+1, span+n, span
		}
		if group == 0 {
			break
		}
		if c.check == nil {
			c.check = &runCheck{done: make(chan struct{}, 1)}
		}
		// Where the group before did not start them, the helpers start
		// before the read, to be running when the hashes can be checked.
		c.check.start(group)
		window, err := c.take(last + c.p.Max)
		if err != nil {
			c.check.skip()
			if cut > 0 && errors.Is(err, io.EOF) {
				err = nil
			}
			return cut, err
		}
		ok := c.verify(window, sizes[cut:cut+group], sums[cut:cut+group])
		if ok > 0 {
			c.serial = serialSpan
		}
		for _, data := range c.check.bufs[:ok] {
			out[cut] = c.emit(data)
			cut++
		}
		if ok < group {
			break
		}
	}
	if cut < len(sizes) && c.check != nil {
		c.check.stop()
	}
	return cut, nil
}

// groupRoom returns how many bytes past the first unconsumed one the next
// group may span. A read that needs the buffered bytes moved to the front
// of the lookahead copies them all, so a group takes the bytes buffered
// and the space past them, or only the bytes buffered where that space is
// too small for fill to read into without moving them. Only where that
// leaves no room for two chunks of Max bytes does it take the whole
// lookahead, moving less than that.
func (c *ContentDefined) groupRoom() int {
	la := &c.la
	room := len(la.buf) - la.start
	if len(la.buf)-la.end < minFillSpace {
		room = la.end - la.start
	}
	if room < 2*c.p.Max {
		return lookaheadSize(c.p.Max)
	}
	return room
}

// maxGroup bounds the chunks of a group: runCheck packs chunk indices in
// 16 bits.
const maxGroup = 1<<16 - 1

// serialSpan is how many Next calls after a cut by NextRun scan serially:
// while one of the last few cuts was predicted, the next probably is too.
const serialSpan = 8

// verify returns how many of the chunks of sizes, laid end to end from the
// start of window, the lookahead's unconsumed bytes, are Next's cuts. window
// holds Max bytes past the start of the last chunk, or the rest of the
// stream.
func (c *ContentDefined) verify(window []byte, sizes []int, sums [][sha256.Size]byte) int {
	bounds := append(c.check.bounds[:0], 0)
	for _, n := range sizes {
		at := bounds[len(bounds)-1]
		rest := min(c.p.Max, len(window)-at)
		if n > rest || n < rest && !c.boundary(at, n) {
			break
		}
		bounds = append(bounds, at+n)
	}
	c.check.bounds = bounds
	return c.check.run(window, sums)
}

// boundary reports whether position n of the chunk starting at
// window[at], where window is the lookahead's unconsumed bytes, is a
// boundary: at or past Min, and the fingerprint there matches.
func (c *ContentDefined) boundary(at, n int) bool {
	if n < c.p.Min {
		return false
	}
	start := c.la.start + at
	if n < c.window {
		// As in findCut: a position less than a window into the chunk
		// hashes the chunk's prefix.
		c.hash.Reset()
		return c.hash.Update(c.la.buf[start:start+n])&c.mask == c.magic
	}
	var probe [1]int
	end := start + n
	return len(c.hash.Matches(c.la.buf[:end], end, c.mask, c.magic, probe[:0])) == 1
}

// runCheck compares the SHA-256s of a group's chunks with their predicted
// sums on the caller's goroutine and on helpers, in the discipline of
// parallelScan. Everyone claims chunks in ascending order, one at a time,
// and a mismatch at chunk i stops the claims past i, so every chunk before
// the first mismatch is hashed and the chunks past it are hashed only
// where a claim beat the mismatch. The caller claims too, and once nothing
// is left to claim it waits for the chunks the helpers are hashing, never
// for one no helper has started; where the helpers get no core, the caller
// hashes the whole group itself and stops at the first mismatch, as a
// serial check would.
//
// A goroutine can take longer to get an idle core than a group takes to
// hash, so the helpers of a group are started when the group before it is
// published, or, for the first group of a run that follows no other, when
// the caller starts to read its bytes. A helper hashes what it can claim
// of the groups up to its own, and waits for its own, yielding its core,
// until it is published or helperWait has passed. A run that stops
// publishes the next group empty, so its helpers exit at once; a run cut
// whole that no other follows, or a read that takes longer, leaves them
// for helperWait at most.
type runCheck struct {
	// Set by run before the group is published, read-only while it is
	// checked: chunk i is data[bounds[i]:bounds[i+1]].
	data   []byte
	bounds []int
	sums   [][sha256.Size]byte
	// bufs[i] is chunk i's copy, made by whoever claims it; run leaves
	// the copies of the chunks that match for the caller.
	bufs [][]byte

	// state packs next<<48 | end<<32 | busy: the chunks next..end-1 are
	// unclaimed, end falls to the first mismatch found, and busy counts
	// the chunks being hashed. The check is over once next >= end and busy
	// is zero; a helper whose chunk makes it so signals done.
	state atomic.Uint64
	done  chan struct{}
	// Groups are numbered from 1: published is the last one published.
	// The caller owns group, the one being checked or read, and helped,
	// the last one whose helpers were started.
	published     atomic.Uint64
	group, helped uint64
}

// helperWait bounds how long a helper waits for its group to be published.
const helperWait = 100 * time.Microsecond

// start begins the next group, of at most n chunks, and starts its
// helpers unless they were started with the group before.
func (r *runCheck) start(n int) {
	r.group++
	if r.helped < r.group {
		r.help(n)
	}
}

// help starts the helpers of the group after the last one helped: one for
// each further core, at most n-1.
func (r *runCheck) help(n int) {
	r.helped++
	for i := min(runtime.GOMAXPROCS(0), n) - 1; i > 0; i-- {
		go r.helper(r.helped)
	}
}

// stop lets the helpers started for the group after this one go: the run
// has stopped, and the caller scans for a while.
func (r *runCheck) stop() {
	if r.helped > r.group {
		r.group = r.helped
		r.skip()
	}
}

// skip publishes the group with no chunks to check.
func (r *runCheck) skip() {
	r.published.Store(r.group)
}

// run checks the group, the chunks of bounds, which are set in r, against
// sums, and returns how many from the first match, whose copies it leaves
// in bufs. It starts the helpers of the next group once this one is
// published.
func (r *runCheck) run(data []byte, sums [][sha256.Size]byte) int {
	m := len(r.bounds) - 1
	if m == 0 {
		r.skip()
		return 0
	}
	if cap(r.bufs) < m {
		r.bufs = make([][]byte, m)
	}
	r.data, r.sums, r.bufs = data, sums, r.bufs[:m]
	r.state.Store(uint64(m) << 32)
	r.skip()
	r.help(m)
	last := false
	for {
		i, ok := r.claim()
		if !ok {
			break
		}
		last = r.finish(i)
	}
	if !last {
		<-r.done
	}
	s := r.state.Load()
	ok, claimed := int(s>>32&0xffff), int(s>>48)
	for _, buf := range r.bufs[ok:claimed] {
		putBuf(buf)
	}
	return ok
}

// claim takes the lowest unclaimed chunk, reporting false when none is
// left.
func (r *runCheck) claim() (int, bool) {
	for {
		s := r.state.Load()
		if s>>48 >= s>>32&0xffff {
			return 0, false
		}
		if r.state.CompareAndSwap(s, s+1<<48+1) {
			return int(s >> 48), true
		}
	}
}

// finish copies and hashes claimed chunk i and releases its claim,
// lowering end to i on a mismatch. It reports whether that ended the
// check.
func (r *runCheck) finish(i int) bool {
	buf := getBuf(r.bounds[i+1] - r.bounds[i])
	copy(buf, r.data[r.bounds[i]:])
	r.bufs[i] = buf
	match := sha256.Sum256(buf) == r.sums[i]
	for {
		s := r.state.Load()
		next, end, busy := s>>48, s>>32&0xffff, s&0xffffffff-1
		if !match {
			end = min(end, uint64(i))
		}
		if r.state.CompareAndSwap(s, next<<48|end<<32|busy) {
			return next >= end && busy == 0
		}
	}
}

// helper hashes the chunks it can claim until group g is published and
// has none left to claim, or until it has waited helperWait for g.
func (r *runCheck) helper(g uint64) {
	wait := time.Now()
	for {
		if i, ok := r.claim(); ok {
			if r.finish(i) {
				r.done <- struct{}{}
			}
			wait = time.Now()
			continue
		}
		if r.published.Load() >= g || time.Since(wait) > helperWait {
			return
		}
		runtime.Gosched()
	}
}
