package chunker

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"freqdedup/internal/fphash"
	"freqdedup/internal/rabin"
)

// Chunk is one chunk cut from an input stream.
type Chunk struct {
	// Data is the chunk content. The slice is owned by the caller after
	// Next returns; it is backed by a pooled buffer that the caller may
	// hand back with Release when done (see the package comment for the
	// ownership contract).
	Data []byte
	// Offset is the byte offset of the chunk within the input stream.
	Offset int64
	// Fingerprint identifies the chunk content (SHA-256 truncated; see
	// package fphash). It is zero when the chunker was configured with
	// Params.DeferFingerprint.
	Fingerprint fphash.Fingerprint
}

// Size returns the chunk size in bytes.
func (c Chunk) Size() int { return len(c.Data) }

// Release returns the chunk's buffer to the package pool. The chunk's Data
// (and any sub-slice of it) must not be touched afterwards. Calling Release
// is optional — unreleased buffers are garbage collected — but streaming
// consumers that release every chunk run allocation-free in steady state.
func (c Chunk) Release() {
	putBuf(c.Data)
}

// bufPools recycles chunk data buffers, one pool per power-of-two size
// class so a released small buffer never blocks reuse for a larger chunk
// (content-defined chunk sizes span Min..Max). Class k holds buffers with
// capacity at least 1<<k; buffers are allocated with exact power-of-two
// capacity and classed by floor(log2(cap)) on release, so a pooled buffer
// always satisfies the whole class it sits in. holderPool recycles the
// *[]byte boxes so neither getBuf nor putBuf allocates in steady state.
var (
	bufPools   [33]sync.Pool
	holderPool = sync.Pool{New: func() any { return new([]byte) }}
)

// bufsOutstanding counts pooled buffers currently handed out (getBuf minus
// putBuf, pooled size classes only). The dedup pipelines' drain-on-error
// and drain-on-cancel tests assert it returns to its baseline, proving no
// code path abandons a pooled chunk buffer.
var bufsOutstanding atomic.Int64

// BufsOutstanding reports how many pooled chunk buffers are currently
// checked out of the pool. It exists for leak assertions in tests of
// streaming consumers; production code has no reason to call it.
func BufsOutstanding() int64 { return bufsOutstanding.Load() }

// getBuf returns a chunk buffer of length n from poolGet, counted in
// bufsOutstanding until putBuf hands it back.
func getBuf(n int) []byte {
	buf, pooled := poolGet(n)
	if pooled {
		bufsOutstanding.Add(1)
	}
	return buf
}

// putBuf hands a chunk buffer back to poolPut.
func putBuf(buf []byte) {
	if poolPut(buf) {
		bufsOutstanding.Add(-1)
	}
}

// poolGet returns a buffer of length n from the pool of n's size class,
// allocating a fresh one (with power-of-two capacity) on a pool miss. It
// reports whether n has a pooled class.
func poolGet(n int) ([]byte, bool) {
	if n == 0 {
		return []byte{}, false
	}
	k := bits.Len(uint(n - 1))
	if k >= len(bufPools) {
		// Beyond the largest pooled class (>4 GiB): plain allocation,
		// never pooled.
		return make([]byte, n), false
	}
	if h, ok := bufPools[k].Get().(*[]byte); ok {
		buf := (*h)[:n]
		*h = nil
		holderPool.Put(h)
		return buf, true
	}
	return make([]byte, n, 1<<k), true
}

// poolPut hands a buffer back to the pool of its capacity's size class,
// reporting whether it was pooled.
func poolPut(buf []byte) bool {
	c := cap(buf)
	if c == 0 {
		return false
	}
	if uint64(c) > 1<<32 {
		// Beyond the largest pooled class — from poolGet's unpooled path
		// (which rejects requests over 4 GiB); never pooled, or a multi-GiB
		// allocation would circulate serving much smaller requests.
		return false
	}
	k := bits.Len(uint(c)) - 1 // floor(log2(c)): every buffer here has cap >= 1<<k
	h := holderPool.Get().(*[]byte)
	*h = buf[:0]
	bufPools[k].Put(h)
	return true
}

// Chunker cuts a stream into chunks.
type Chunker interface {
	// Next returns the next chunk, or io.EOF after the final chunk has been
	// returned. A trailing partial chunk (shorter than the minimum size) is
	// returned as a final chunk rather than discarded.
	Next() (Chunk, error)
}

// Fixed cuts the input into fixed-size chunks. The last chunk may be short.
type Fixed struct {
	r      io.Reader
	size   int
	offset int64
	done   bool
}

var _ Chunker = (*Fixed)(nil)

// NewFixed returns a fixed-size chunker reading from r. NewFixed panics if
// size is not positive.
func NewFixed(r io.Reader, size int) *Fixed {
	if size <= 0 {
		panic(fmt.Sprintf("chunker: fixed chunk size must be positive, got %d", size))
	}
	return &Fixed{r: r, size: size}
}

// Next implements Chunker.
func (f *Fixed) Next() (Chunk, error) {
	if f.done {
		return Chunk{}, io.EOF
	}
	// Pooled buffer: a full chunk reuses it as-is, and the final short
	// chunk just slices it down instead of pinning a full-size allocation
	// the way the seed implementation did.
	buf := getBuf(f.size)
	n, err := io.ReadFull(f.r, buf)
	switch {
	case err == nil:
		// full chunk
	case errors.Is(err, io.ErrUnexpectedEOF):
		f.done = true
		buf = buf[:n]
	case errors.Is(err, io.EOF):
		f.done = true
		putBuf(buf)
		return Chunk{}, io.EOF
	default:
		putBuf(buf)
		return Chunk{}, fmt.Errorf("chunker: read: %w", err)
	}
	c := Chunk{Data: buf, Offset: f.offset, Fingerprint: fphash.FromBytes(buf)}
	f.offset += int64(n)
	return c, nil
}

// chunkCountHint estimates how many chunks remain, for All's preallocation.
func (f *Fixed) chunkCountHint() int {
	return remainingHint(f.r, f.size)
}

// Params configures a content-defined chunker.
type Params struct {
	// Min is the minimum chunk size in bytes. No boundary is considered
	// before Min bytes have accumulated.
	Min int
	// Avg is the target average chunk size in bytes. It must be a power of
	// two; boundaries are declared where the rolling fingerprint matches a
	// fixed pattern in its low log2(Avg) bits.
	Avg int
	// Max is the maximum chunk size in bytes. A boundary is forced at Max.
	Max int
	// Window is the rolling-hash window size in bytes. Zero selects
	// rabin.DefaultWindow. AlgoGear ignores it (the gear window is fixed
	// at 64 bytes by construction).
	Window int
	// Algorithm selects the rolling-hash family. The zero value is
	// AlgoRabin, the original format; AlgoGear is faster but cuts at
	// different boundaries (see Algorithm).
	Algorithm Algorithm
	// DeferFingerprint leaves Chunk.Fingerprint zero so callers can hash
	// chunk contents out of band (e.g. in a worker pool) instead of paying
	// a serial SHA-256 inside Next.
	DeferFingerprint bool
}

// DefaultParams mirrors the paper's FSL configuration: 8 KB average chunks
// with 2 KB minimum and 16 KB maximum.
func DefaultParams() Params {
	return Params{Min: 2 * 1024, Avg: 8 * 1024, Max: 16 * 1024}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Min <= 0 || p.Avg <= 0 || p.Max <= 0 {
		return errors.New("chunker: sizes must be positive")
	}
	if p.Min > p.Avg || p.Avg > p.Max {
		return fmt.Errorf("chunker: need Min <= Avg <= Max, got %d/%d/%d", p.Min, p.Avg, p.Max)
	}
	if p.Avg&(p.Avg-1) != 0 {
		return fmt.Errorf("chunker: Avg must be a power of two, got %d", p.Avg)
	}
	if p.Window < 0 {
		return fmt.Errorf("chunker: negative window %d", p.Window)
	}
	if p.Algorithm != AlgoRabin && p.Algorithm != AlgoGear {
		return fmt.Errorf("chunker: unknown algorithm %d", int(p.Algorithm))
	}
	return nil
}

// minFillSpace is the smallest write space fill tolerates before compacting
// the lookahead buffer, so reads stay large even as the write position
// approaches the buffer's end.
const minFillSpace = 32 * 1024

// lookaheadSize sizes the fixed lookahead buffer for a maximum chunk size.
func lookaheadSize(max int) int {
	size := 4 * max
	if size < 256*1024 {
		size = 256 * 1024
	}
	return size
}

// lookahead is the streaming buffer shared by the content-defined
// chunkers: a fixed window into the input that reads land in directly,
// with the consumed prefix compacted away as the write position nears the
// end. It decouples the read/buffer machinery from the cut policy, so
// Rabin and gear chunkers differ only in their boundary scan.
type lookahead struct {
	r      io.Reader
	buf    []byte // fixed lookahead buffer; reads land directly in it
	start  int    // first unconsumed byte in buf
	end    int    // end of valid data in buf
	offset int64  // stream offset of buf[start]
	eof    bool
}

// newLookahead takes its buffer from the size-class pools; release hands
// it back. The buffer is not counted in BufsOutstanding: a chunker that
// is cancelled or fails keeps it.
func newLookahead(r io.Reader, size int) lookahead {
	buf, _ := poolGet(size)
	return lookahead{r: r, buf: buf}
}

// release hands the buffer back once take has reported io.EOF, for the
// next chunker to reuse. Nothing may read the buffer afterwards.
func (l *lookahead) release() {
	poolPut(l.buf)
	l.buf = nil
}

// maxEmptyReads is how many reads in a row may return no data and no
// error before take gives up with io.ErrNoProgress (bufio's limit).
const maxEmptyReads = 100

// fill reads more data directly into the lookahead buffer, compacting the
// consumed prefix away when the remaining write space has become small.
// It returns how many bytes it read and any read error; io.EOF is
// recorded in l.eof instead.
func (l *lookahead) fill() (int, error) {
	if len(l.buf)-l.end < minFillSpace && l.start > 0 {
		l.end = copy(l.buf, l.buf[l.start:l.end])
		l.start = 0
	}
	n, err := l.r.Read(l.buf[l.end:])
	l.end += n
	if err != nil {
		if errors.Is(err, io.EOF) {
			l.eof = true
			return n, nil
		}
		return n, fmt.Errorf("chunker: read: %w", err)
	}
	return n, nil
}

// full reports whether take(max) can return without reading.
func (l *lookahead) full(max int) bool {
	return l.end-l.start >= max || l.eof
}

// take returns the next up-to-max unconsumed bytes, reading until at
// least max are buffered or the stream ends. It returns io.EOF when no
// bytes remain, and io.ErrNoProgress when the reader returns nothing,
// and no error, maxEmptyReads times in a row. The returned slice is
// valid until the next consume call.
func (l *lookahead) take(max int) ([]byte, error) {
	for empty := 0; !l.full(max); {
		n, err := l.fill()
		if err != nil {
			return nil, err
		}
		if n > 0 || l.eof {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			return nil, fmt.Errorf("chunker: read: %w", io.ErrNoProgress)
		}
	}
	avail := l.end - l.start
	if avail == 0 {
		return nil, io.EOF
	}
	if avail > max {
		avail = max
	}
	return l.buf[l.start : l.start+avail], nil
}

// consume marks n bytes returned by take as chunked.
func (l *lookahead) consume(n int) {
	l.start += n
	l.offset += int64(n)
}

// ContentDefined cuts the input at content-defined boundaries using a
// rolling Rabin fingerprint: a boundary is declared at the first position
// past Min where fp mod Avg == Avg-1 (the paper's "fingerprint modulo a
// pre-defined divisor equals some constant"), or at Max bytes.
//
// The hash restarts at every chunk start, but once a full window has
// rolled in, the fingerprint at a position depends only on the window
// ending there. So positions at least a window into the lookahead's
// unconsumed bytes are tested once, as they are buffered, by
// rabin.Hash.Matches, and queued as candidate cuts; a chunk ends at the
// first queued candidate in [start+Min, start+Max], else at start+Max.
// Each refill is scanned in pieces, on every core that is free (see
// parallelScan), and a piece's candidates are queued when a cut needs
// them. Only when Min < window do the few positions less than a window
// into a chunk need a roll of their own. NextRun cuts a run of chunks
// whose lengths a parent predicts without scanning them, verifying their
// SHA-256s on every core that is free, and the Next calls right after it
// scan serially, their own positions only (see the package comment).
type ContentDefined struct {
	la     lookahead
	p      Params
	mask   uint64
	magic  uint64
	window int
	hash   *rabin.Hash
	par    *parallelScan
	// cands[head:] are the queued candidate cuts, ascending, as indices
	// into la.buf laid out as at the last rebase, when buf[0] sat at
	// stream offset base. scanned is the first stream position no scan
	// has covered; par may still hold the candidates of positions before
	// it.
	cands   []int
	head    int
	base    int64
	scanned int64
	// candBuf backs cands until more than 64 candidates are pending at
	// once, so the queue costs a new chunker no allocation of its own.
	candBuf [64]int
	// serial counts down the Next calls, after a cut by NextRun, that find
	// their cut with serial steps of their own positions (see findCut)
	// instead of a scan of the whole refill: while a caller's predictions
	// are landing, most bytes are never scanned, and a refill-wide scan
	// after each miss would scan ahead for nothing.
	serial int
	// check verifies the SHA-256s of NextRun's chunks; nil until the
	// first run.
	check *runCheck
}

var _ Chunker = (*ContentDefined)(nil)

// NewContentDefined returns a content-defined chunker reading from r.
func NewContentDefined(r io.Reader, p Params) (*ContentDefined, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	window := p.Window
	if window == 0 {
		window = rabin.DefaultWindow
	}
	mask := uint64(p.Avg - 1)
	hash := rabin.New(window)
	c := &ContentDefined{
		la:     newLookahead(r, lookaheadSize(p.Max)),
		p:      p,
		mask:   mask,
		magic:  mask,
		window: window,
		hash:   hash,
		par:    newParallelScan(hash, mask, mask),
	}
	c.cands = c.candBuf[:0]
	return c, nil
}

// rebase moves the queued candidates with the bytes when fill has
// compacted the buffer since the queue was last used.
func (c *ContentDefined) rebase() {
	base := c.la.offset - int64(c.la.start)
	if shift := int(base - c.base); shift != 0 {
		for i := c.head; i < len(c.cands); i++ {
			c.cands[i] -= shift
		}
		c.base = base
	}
}

// scan starts a scan of the bytes buffered since the last one. A position
// less than a window past the first unconsumed byte is skipped: its
// fingerprint depends on where its chunk starts, so findCut rolls such
// positions itself. No scan may be pending: the buffer it reads must not
// have moved. The queue must be rebased.
func (c *ContentDefined) scan() {
	la := &c.la
	end := c.base + int64(la.end)
	from := max(c.scanned, la.offset+int64(c.window))
	if from > end {
		return
	}
	c.cands = c.cands[:copy(c.cands, c.cands[c.head:])]
	c.head = 0
	lo := int(from - c.base)
	c.par.start(la.buf[:la.end], lo, pieces(lo, la.end))
	c.scanned = end + 1
}

// findCut returns the boundary position within data (1 <= cut <=
// len(data)), where data starts at the lookahead's first unconsumed byte
// and is either Max bytes long or the final remainder of the stream.
// Boundaries match the reference byte-at-a-time algorithm exactly: the
// rolling hash restarts at the chunk's first byte, and the first position
// at or past Min whose fingerprint matches cuts the chunk.
func (c *ContentDefined) findCut(data []byte) int {
	if len(data) <= c.p.Min {
		return len(data)
	}
	if c.p.Min < c.window {
		// Positions less than a window into the chunk hash a shorter
		// prefix of it, so they depend on the chunk start: roll them from
		// a reset hash.
		c.hash.Reset()
		fp := c.hash.Update(data[:c.p.Min])
		for cut := c.p.Min; ; cut++ {
			if fp&c.mask == c.magic {
				return cut
			}
			if cut == len(data) || cut+1 == c.window {
				break
			}
			fp = c.hash.Roll(data[cut])
		}
	}
	start := c.la.start
	lo, hi := start+max(c.p.Min, c.window), start+len(data)
	// Merge the scan's pieces only until the queue holds a candidate at or
	// past lo, or has every candidate up to hi. Positions no scan has
	// covered are scanned here, serialStep at a time, up to the first
	// candidate.
	for {
		for c.head < len(c.cands) && c.cands[c.head] < lo {
			c.head++
		}
		if c.head < len(c.cands) {
			if c.cands[c.head] <= hi {
				return c.cands[c.head] - start
			}
			return len(data)
		}
		if c.par.pending() {
			if c.par.merged() > hi {
				return len(data)
			}
			c.cands = c.par.mergeNext(c.cands)
			continue
		}
		from := max(int(c.scanned-c.base), lo)
		if from > hi {
			return len(data)
		}
		to := min(from+serialStep-1, hi)
		c.cands, c.head = c.hash.Matches(c.la.buf[:to], from, c.mask, c.magic, c.cands[:0]), 0
		c.scanned = c.base + int64(to) + 1
	}
}

// serialStep is how many positions findCut scans at a time where no scan
// has covered them: a few KiB, so a chunk that cuts early is not scanned
// much past its cut.
const serialStep = 4 * 1024

// Next implements Chunker.
func (c *ContentDefined) Next() (Chunk, error) {
	window, err := c.take(c.p.Max)
	if err != nil {
		return Chunk{}, err
	}
	c.rebase()
	if c.serial > 0 {
		c.serial--
	} else {
		c.scan()
	}
	return c.cut(window, c.findCut(window)), nil
}

// take ensures a lookahead of limit bytes (or the stream remainder), at
// most the buffer's size, and returns it. A pending scan is drained first
// when the lookahead is about to read, which may compact the buffer, and
// at the end of the stream, before the buffer goes back to the pool.
func (c *ContentDefined) take(limit int) ([]byte, error) {
	if !c.la.full(limit) {
		c.cands = c.par.drain(c.cands)
	}
	window, err := c.la.take(limit)
	if errors.Is(err, io.EOF) {
		c.cands = c.par.drain(c.cands)
		c.la.release()
	}
	return window, err
}

// cut consumes the first n bytes of window, the lookahead's unconsumed
// bytes, as the next chunk.
func (c *ContentDefined) cut(window []byte, n int) Chunk {
	data := getBuf(n)
	copy(data, window[:n])
	return c.emit(data)
}

// emit consumes the next len(data) unconsumed bytes as a chunk, data
// their copy in a pooled buffer.
func (c *ContentDefined) emit(data []byte) Chunk {
	ch := Chunk{Data: data, Offset: c.la.offset}
	if !c.p.DeferFingerprint {
		ch.Fingerprint = fphash.FromBytes(data)
	}
	c.la.consume(len(data))
	return ch
}

// chunkCountHint estimates how many chunks remain, for All's preallocation.
func (c *ContentDefined) chunkCountHint() int {
	return remainingHint(c.la.r, c.p.Avg)
}

// remainingHint divides the reader's remaining length (when it exposes one,
// as bytes.Reader and strings.Reader do) by an average chunk size estimate.
func remainingHint(r io.Reader, avgChunk int) int {
	lr, ok := r.(interface{ Len() int })
	if !ok || avgChunk <= 0 {
		return 0
	}
	return lr.Len()/avgChunk + 1
}

// All drains a chunker, returning every chunk. It is a convenience for
// tests and small inputs; large streams should iterate Next directly. The
// output slice is preallocated from the chunker's average-chunk-size
// estimate when the underlying reader exposes its remaining length.
func All(c Chunker) ([]Chunk, error) {
	var out []Chunk
	if h, ok := c.(interface{ chunkCountHint() int }); ok {
		if n := h.chunkCountHint(); n > 0 {
			out = make([]Chunk, 0, n)
		}
	}
	for {
		ch, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			// The accumulated chunks are unreachable to the caller; hand
			// their buffers back to the pool.
			for _, prev := range out {
				prev.Release()
			}
			return nil, err
		}
		out = append(out, ch)
	}
}
