package chunker

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"freqdedup/internal/rabin"
)

// fanOutMinDefault is fanOutMin as the package sets it.
var fanOutMinDefault = fanOutMin

// TestMain lowers the fan-out threshold, so that the golden and fuzz
// comparisons against referenceCDC drive the parallel scan, with pieces
// down to 100 positions (below rabin's four-lane split at 256), wherever
// the machine has more than one core.
func TestMain(m *testing.M) {
	fanOutMin = 100
	m.Run()
}

// TestParallelScanMatchesSerial holds the parallel scan to one Matches
// call over the same range: for 1–8 pieces, pieces shorter than Matches'
// four-lane split, from at the window, and masks that put candidates on
// every position, and so on every piece boundary. Its last subtest holds
// ContentDefined to referenceCDC while refills fan out across lookahead
// compactions with candidates still queued.
func TestParallelScanMatchesSerial(t *testing.T) {
	const w = rabin.DefaultWindow
	data := randBytes(91, 64*1024)
	type scanCase struct {
		name  string
		n     int // len(data) is n-1 past from, so n positions
		from  int
		mask  uint64
		magic uint64
	}
	var cases []scanCase
	for _, mask := range []uint64{0, 3, 8191} {
		for _, span := range []struct {
			from, n int
		}{
			{w, 1},                 // one position: most pieces empty
			{w, 8 * 255},           // every piece under the four-lane split
			{w, 8*256 + 5},         // pieces just over it
			{1000, 20000},          // from past the window
			{w, len(data) + 1 - w}, // the whole buffer
		} {
			cases = append(cases, scanCase{
				name: fmt.Sprintf("mask=%d/from=%d/n=%d", mask, span.from, span.n),
				n:    span.n, from: span.from, mask: mask, magic: mask,
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := rabin.New(w)
			buf := data[:tc.from+tc.n-1]
			want := h.Matches(buf, tc.from, tc.mask, tc.magic, nil)
			s := newParallelScan(h, tc.mask, tc.magic)
			for n := 1; n <= 8; n++ {
				s.start(buf, tc.from, n)
				got := s.drain([]int{-1})
				if got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("pieces=%d: %d candidates, want %d (first diff at %d)",
						n, len(got)-1, len(want), firstDiff(got[1:], want))
				}
				if tc.mask == 0 && n > 1 {
					// Every position is a candidate: a lost or doubled
					// boundary position would change the count.
					for _, b := range s.bounds[1:n] {
						if _, ok := slices.BinarySearch(got[1:], b); !ok && b <= len(buf) {
							t.Fatalf("pieces=%d: boundary %d missing", n, b)
						}
					}
				}
			}
		})
	}
	t.Run("compacted", func(t *testing.T) {
		// Four Ps start three helpers a refill, even on fewer cores.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		data := randBytes(92, 2*lookaheadSize(DefaultParams().Max)+12345)
		for _, p := range []Params{
			DefaultParams(),
			{Min: 16, Avg: 64, Max: 256},
			{Min: rabin.DefaultWindow, Avg: 256, Max: 1024},
		} {
			for _, size := range []int{64*1024 + 3, len(data)} {
				compareReaderAgainstReference(t, data, p, iotest{r: bytes.NewReader(data), max: size})
			}
		}
	})
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestCDCSteadyStateAllocsParallel is TestCDCSteadyStateAllocs with the
// fan-out live, which testing.AllocsPerRun cannot see because it pins
// GOMAXPROCS to 1. At GOMAXPROCS 2 it counts runtime.MemStats.Mallocs
// over a window of lookahead refills of a warm chunker and allows one
// allocation per refill: the closure of the go statement that starts the
// helper. Mallocs counts the whole process, so a window in which the
// goroutine calling Next moved to another P also counts the runtime's
// refills of that P's sync.Pool cache; the test measures up to eight
// windows and passes on the first within the bound. A chunker that
// allocates on every refill exceeds it in every window.
func TestCDCSteadyStateAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func(n int) { fanOutMin = n }(fanOutMin)
	fanOutMin = fanOutMinDefault
	p := DefaultParams()
	la := lookaheadSize(p.Max)
	const warm, measured, windows = 160, 16, 8
	data := make([]byte, (warm+windows*measured+2)*la)
	rand.New(rand.NewSource(41)).Read(data)
	r := &countingReader{r: bytes.NewReader(data)}
	c, err := NewContentDefined(r, p)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(n int) {
		for chunked := 0; chunked < n; {
			ch, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			chunked += ch.Size()
			ch.Release()
		}
	}
	// A collection empties the buffer pools, so none may run from the
	// warm-up on. The warm-up also fills the runtime's free lists of
	// goroutines, so that starting a helper reuses an exited one.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drain(warm * la)
	var seen []string
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		reads := r.reads
		runtime.ReadMemStats(&before)
		drain(measured * la)
		runtime.ReadMemStats(&after)
		refills := r.reads - reads
		allocs := after.Mallocs - before.Mallocs
		if allocs <= uint64(refills) {
			return
		}
		seen = append(seen, fmt.Sprintf("%d over %d", allocs, refills))
	}
	t.Fatalf("allocations over lookahead refills, per window: %v; want at most one per refill in some window", seen)
}

// countingReader counts the reads that reach r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}
