// Package bufpool recycles the byte buffers of the backup and restore
// paths (chunks and the chunker's lookahead, arena blocks and container
// records, restore slabs and container buffers) under one policy and one
// count.
//
// A request for n bytes is served from n's size class: the power of two
// at or above n up to BlockBytes, whole BlockBytes blocks above it. A new
// buffer has its class's capacity; a buffer Put joins the largest class it
// serves in full. A request over MaxBytes is a plain allocation, neither
// pooled nor counted. A caller that asks one capacity for all its buffers
// (a full container's record, a restore slab) keeps them in one class.
//
// Outstanding, the buffers Get handed out and Put has not taken back, is
// the one leak count: tests and the crash explorer check that it returns
// to its baseline after every backup and restore, failed ones included.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

const (
	blockShift = 18
	// BlockBytes is the size-class step above the power-of-two classes:
	// small enough that a buffer holds less than a block more than its
	// request, large enough that a container-sized buffer is a few dozen
	// blocks.
	BlockBytes = 1 << blockShift
	// MaxBytes is the largest pooled size: 64 MiB, sixteen default 4 MiB
	// containers, well above any record, slab or chunk the repository's
	// default geometry makes. Larger buffers are plain allocations.
	MaxBytes = 64 << 20
)

// pools[k] holds class k's buffers, boxed: k < blockShift is 1<<k bytes,
// k >= blockShift is k-blockShift+1 blocks. holders recycles the boxes, so
// neither Get nor Put allocates in steady state.
var (
	pools   [blockShift + MaxBytes/BlockBytes]sync.Pool
	holders = sync.Pool{New: func() any { return new([]byte) }}
)

var outBufs, outBytes atomic.Int64

// Count is a number of buffers and their class bytes.
type Count struct {
	Bufs, Bytes int64
}

// Outstanding reports the buffers handed out and not yet put back.
func Outstanding() Count {
	return Count{Bufs: outBufs.Load(), Bytes: outBytes.Load()}
}

// Settle waits up to timeout for Outstanding to read want, and returns
// its last reading: a failed backup's producer may still be handing
// buffers back after the backup returned.
func Settle(want Count, timeout time.Duration) Count {
	deadline := time.Now().Add(timeout)
	for {
		got := Outstanding()
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// class returns the class serving a request of n bytes, 1 <= n <=
// MaxBytes, and its capacity.
func class(n int) (int, int) {
	if n <= BlockBytes {
		k := bits.Len(uint(n - 1))
		return k, 1 << k
	}
	b := (n + BlockBytes - 1) >> blockShift
	return blockShift + b - 1, b << blockShift
}

// floorClass returns the largest class a buffer of capacity c, 1 <= c <=
// MaxBytes, can serve in full, and its capacity.
func floorClass(c int) (int, int) {
	if c < BlockBytes {
		k := bits.Len(uint(c)) - 1
		return k, 1 << k
	}
	b := c >> blockShift
	return blockShift + b - 1, b << blockShift
}

// Get returns a buffer of length n: from the pool of n's class, or a new
// one of the class's capacity, counted as outstanding until Put. A request
// of 0 bytes or over MaxBytes gets a plain, uncounted allocation.
func Get(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	if n > MaxBytes {
		return make([]byte, n)
	}
	k, size := class(n)
	outBufs.Add(1)
	outBytes.Add(int64(size))
	if h, ok := pools[k].Get().(*[]byte); ok {
		buf := (*h)[:n]
		*h = nil
		holders.Put(h)
		return buf
	}
	return make([]byte, n, size)
}

// Put hands buf back for reuse and takes it off the count; buf must be
// the slice Get returned, or a reslice of it from index 0, so that its
// capacity is the one Get handed out. Nothing may touch buf afterwards,
// nor any slice of it. A buffer of capacity 0 or over MaxBytes is
// dropped.
func Put(buf []byte) {
	c := cap(buf)
	if c == 0 || c > MaxBytes {
		return
	}
	k, size := floorClass(c)
	outBufs.Add(-1)
	outBytes.Add(-int64(size))
	h := holders.Get().(*[]byte)
	*h = buf[:0]
	pools[k].Put(h)
}
