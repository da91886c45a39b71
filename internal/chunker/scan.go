package chunker

import (
	"runtime"
	"sync/atomic"

	"freqdedup/internal/rabin"
)

// fanOutMin is the fewest newly buffered positions a parallel scan hands
// each piece; a refill too short for two pieces is scanned by the caller
// alone. Tests lower it so that small inputs reach the fan-out.
var fanOutMin = 8 * 1024

// piecesPerProc is how many pieces a refill is cut into per core, so that
// a helper that starts late still finds pieces to take, and the caller,
// when it reaches the helpers' pieces, waits for one piece at most.
const piecesPerProc = 8

// pieces returns how many pieces a scan of positions from..end is cut
// into: one when there is one core or the range is too short to share.
func pieces(from, end int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return 1
	}
	return max(1, min(procs*piecesPerProc, (end+1-from)/fanOutMin))
}

// parallelScan finds the candidate cuts of one refill with
// rabin.Hash.Matches run over contiguous pieces of it on several
// goroutines. Matches reports a position from the window ending there
// alone, so a piece needs nothing from its neighbours, and the pieces'
// lists, taken in order, are exactly one Matches call over the whole range.
//
// Scheduling is help-first and lazy. The caller claims pieces from the
// front, one at a time and only when it needs the candidates past the ones
// it has, so chunks are cut from the first piece while the rest is still
// being scanned. Helpers started with the scan claim pieces from the back
// and exit when none is left. When the caller reaches the helpers' pieces
// it waits for them; it never waits for a piece no helper has started, so
// where the helpers get no core the caller scans the whole refill itself,
// as a serial scan would. Once a scan is merged, no goroutine is left of
// it but a helper that has not run yet, which finds nothing to claim and
// exits.
type parallelScan struct {
	hash        *rabin.Hash
	mask, magic uint64

	// Set by start before any piece can be claimed, read-only while the
	// scan is pending.
	data   []byte
	bounds []int   // piece i tests positions bounds[i] .. bounds[i+1]-1
	outs   [][]int // the candidates of the pieces helpers scanned

	// Owned by the caller: n is the scan's piece count, and pieces
	// before next have been merged into the caller's queue, so the scan
	// is pending while next < n; last records that the caller finished
	// the scan's last piece itself, so no helper will signal done.
	n, next int
	last    bool

	// free packs the unclaimed pieces [lo, hi) as lo<<32 | hi: the caller
	// claims lo, a helper hi-1. left counts the pieces not yet scanned;
	// the helper whose piece takes it to zero signals done.
	free atomic.Uint64
	left atomic.Int32
	done chan struct{}
}

func newParallelScan(h *rabin.Hash, mask, magic uint64) *parallelScan {
	return &parallelScan{hash: h, mask: mask, magic: magic, done: make(chan struct{}, 1)}
}

// start begins a scan of the positions from..len(data) of data, cut into
// n pieces, and starts a helper for each further core, at most n-1. from
// must be at least the window size, and no scan may be pending; data must
// not change until the scan has been merged.
func (s *parallelScan) start(data []byte, from, n int) {
	s.data = data
	s.bounds = s.bounds[:0]
	span := len(data) + 1 - from
	for i := 0; i <= n; i++ {
		s.bounds = append(s.bounds, from+i*span/n)
	}
	for len(s.outs) < n {
		// Room for several times a piece's expected candidates, so the
		// lists of a warm chunker do not grow.
		s.outs = append(s.outs, make([]int, 0, 16))
	}
	s.n, s.next, s.last = n, 0, false
	s.left.Store(int32(n))
	s.free.Store(uint64(n))
	for i := min(runtime.GOMAXPROCS(0), n) - 1; i > 0; i-- {
		go s.help()
	}
}

// pending reports whether the scan has pieces not yet merged.
func (s *parallelScan) pending() bool { return s.next < s.n }

// merged returns the first position whose candidates are not yet merged.
func (s *parallelScan) merged() int { return s.bounds[s.next] }

// mergeNext appends the next unmerged piece's candidates to out: it scans
// the piece itself if no helper has claimed it, and otherwise waits for
// the helpers and appends every piece left, all of which they claimed.
func (s *parallelScan) mergeNext(out []int) []int {
	if i, ok := s.claim(true); ok {
		out = s.hash.Matches(s.data[:s.bounds[i+1]-1], s.bounds[i], s.mask, s.magic, out)
		s.last = s.left.Add(-1) == 0
		s.next++
	} else {
		if !s.last {
			<-s.done
		}
		for _, o := range s.outs[s.next:s.n] {
			out = append(out, o...)
		}
		s.next = s.n
	}
	return out
}

// drain merges every piece of a pending scan into out.
func (s *parallelScan) drain(out []int) []int {
	for s.pending() {
		out = s.mergeNext(out)
	}
	return out
}

// claim takes the lowest unclaimed piece for the caller (front) or the
// highest for a helper, reporting false when none is left.
func (s *parallelScan) claim(front bool) (int, bool) {
	for {
		f := s.free.Load()
		lo, hi := uint32(f>>32), uint32(f)
		if lo >= hi {
			return 0, false
		}
		i := lo
		if front {
			lo++
		} else {
			hi--
			i = hi
		}
		if s.free.CompareAndSwap(f, uint64(lo)<<32|uint64(hi)) {
			return int(i), true
		}
	}
}

// help scans pieces from the back until none is left to claim.
func (s *parallelScan) help() {
	for {
		i, ok := s.claim(false)
		if !ok {
			return
		}
		lo, hi := s.bounds[i], s.bounds[i+1]
		s.outs[i] = s.hash.Matches(s.data[:hi-1], lo, s.mask, s.magic, s.outs[i][:0])
		if s.left.Add(-1) == 0 {
			s.done <- struct{}{}
		}
	}
}
