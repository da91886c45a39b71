package bufpool

import (
	"fmt"
	"testing"
)

// TestClass holds Get and Put to the one size-class rule: power-of-two
// classes up to a block, whole blocks above it, and plain allocations over
// MaxBytes that are neither pooled nor counted. Per row, the count is back
// at its baseline after the Put; a warm Get and Put allocate nothing; and
// a put buffer of odd capacity joins the row's class, the largest it
// serves in full, so a Get of the class's full size hands it back. A
// buffer put without a Get takes its class off the count, and the Get
// that hands it out again puts it back on.
func TestClass(t *testing.T) {
	for _, tc := range []struct {
		n       int  // request
		class   int  // capacity of a new buffer for it
		counted bool // pooled and counted
		odd     int  // a capacity in the class that is not its size; 0: none
	}{
		{0, 0, false, 0},
		{1, 1, true, 0},
		{2, 2, true, 3},
		{3, 4, true, 7},
		{1 << 10, 1 << 10, true, 0},
		{1<<10 + 1, 2 << 10, true, 3000},
		{BlockBytes / 2, BlockBytes / 2, true, 0},
		{BlockBytes/2 + 1, BlockBytes, true, BlockBytes + 1},
		{BlockBytes, BlockBytes, true, 2*BlockBytes - 1},
		{BlockBytes + 1, 2 * BlockBytes, true, 3*BlockBytes - 1},
		{5*BlockBytes - 7, 5 * BlockBytes, true, 5*BlockBytes + 100},
		{17 * BlockBytes, 17 * BlockBytes, true, 0},
		{MaxBytes, MaxBytes, true, 0},
		{MaxBytes + 1, MaxBytes + 1, false, 0},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			base := Outstanding()
			buf := Get(tc.n)
			if len(buf) != tc.n || cap(buf) < tc.class {
				t.Fatalf("Get(%d): len %d cap %d, want len %d cap >= %d", tc.n, len(buf), cap(buf), tc.n, tc.class)
			}
			want := base
			if tc.counted {
				want = Count{Bufs: base.Bufs + 1, Bytes: base.Bytes + int64(tc.class)}
			}
			if got := Outstanding(); got != want {
				t.Fatalf("Outstanding after Get(%d) = %+v, want %+v", tc.n, got, want)
			}
			Put(buf)
			if got := Outstanding(); got != base {
				t.Fatalf("Outstanding after Put = %+v, want %+v", got, base)
			}
			if !raceEnabled && tc.counted {
				if allocs := testing.AllocsPerRun(20, func() { Put(Get(tc.n)) }); allocs != 0 {
					t.Errorf("warm Get(%d)/Put: %.1f allocations per run, want 0", tc.n, allocs)
				}
			}
			if tc.odd == 0 {
				return
			}
			got := 0
			for try := 0; try < 8 && got != tc.odd; try++ {
				// sync.Pool keeps a Put in its P's private slot, which a Get
				// after a P migration does not see: retry.
				Put(make([]byte, 1, tc.odd))
				got = cap(Get(tc.class))
				if got < tc.class {
					t.Fatalf("Get(%d) returned capacity %d", tc.class, got)
				}
			}
			if got != tc.odd && !raceEnabled {
				t.Errorf("Get(%d) after a Put of capacity %d returned capacity %d, want the put buffer", tc.class, tc.odd, got)
			}
			if now := Outstanding(); now != base {
				t.Fatalf("Outstanding = %+v after a Put and a Get, want %+v", now, base)
			}
		})
	}
}

// TestLeakCount: Outstanding counts every buffer handed out and not put
// back, with its class bytes, and returns to its baseline once every one
// is put back, resliced from index 0 or not.
func TestLeakCount(t *testing.T) {
	base := Outstanding()
	var bufs [][]byte
	var bytes int64
	for _, n := range []int{1, 100, 4096, BlockBytes, 3*BlockBytes + 1} {
		bufs = append(bufs, Get(n))
		_, size := class(n)
		bytes += int64(size)
	}
	if got, want := Outstanding(), (Count{Bufs: base.Bufs + 5, Bytes: base.Bytes + bytes}); got != want {
		t.Fatalf("Outstanding = %+v, want %+v", got, want)
	}
	for _, b := range bufs {
		Put(b[:len(b)/2])
	}
	if got := Outstanding(); got != base {
		t.Fatalf("Outstanding after every Put = %+v, want %+v", got, base)
	}
}
