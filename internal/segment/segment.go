// Package segment implements variable-size segmentation of chunk streams
// (Section 7.1, following the segmentation scheme of Sparse Indexing [45]):
// a segment boundary is placed at the end of a chunk when (i) the segment
// has reached the minimum segment size and the chunk's fingerprint modulo a
// divisor equals divisor-1, or (ii) including the next chunk would exceed
// the maximum segment size.
//
// Segmentation is content-defined at the chunk-fingerprint level, so
// similar backup streams produce aligned segments — the property MinHash
// encryption's effectiveness (Broder's theorem) depends on. It holds only
// while the streams share a divisor, so the divisor is pre-defined, as in
// Sparse Indexing: Divisor works it out from the segment sizes and an
// expected chunk size. The live backup pipeline (internal/dedup) passes
// its configured average chunk size, which no edit of the data can move;
// the trace-level lab (internal/defense, via Split) has traces but no
// chunker configuration, and uses the trace's measured mean.
//
// ScrambleOrder is the paper's scrambling (Algorithm 5), which permutes
// each segment's upload order; the live pipeline and the trace lab both
// draw it from here.
package segment

import (
	"errors"
	"fmt"
	"math/rand"

	"freqdedup/internal/trace"
)

// Params configures segmentation by byte sizes, as the paper does (minimum
// 512 KB, average 1 MB, maximum 2 MB).
type Params struct {
	MinBytes int
	AvgBytes int
	MaxBytes int
}

// DefaultParams returns the paper's segment configuration.
func DefaultParams() Params {
	return Params{MinBytes: 512 << 10, AvgBytes: 1 << 20, MaxBytes: 2 << 20}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MinBytes <= 0 || p.AvgBytes <= 0 || p.MaxBytes <= 0 {
		return errors.New("segment: sizes must be positive")
	}
	if p.MinBytes > p.AvgBytes || p.AvgBytes > p.MaxBytes {
		return fmt.Errorf("segment: need Min <= Avg <= Max, got %d/%d/%d",
			p.MinBytes, p.AvgBytes, p.MaxBytes)
	}
	return nil
}

// Segment is one contiguous sub-sequence of the input stream, expressed as
// a half-open index range [Start, End) into the chunk slice.
type Segment struct {
	Start, End int
}

// Len returns the number of chunks in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// Divisor returns the boundary divisor that realizes p's average segment
// size for chunks of about chunkBytes: once MinBytes have accumulated each
// chunk ends the segment with probability 1/divisor, adding an expected
// divisor*chunkBytes bytes — max(1, (AvgBytes-MinBytes)/chunkBytes).
func Divisor(p Params, chunkBytes int) uint64 {
	if chunkBytes < 1 {
		chunkBytes = 1
	}
	if d := uint64(p.AvgBytes-p.MinBytes) / uint64(chunkBytes); d > 1 {
		return d
	}
	return 1
}

// Splitter segments a chunk stream one chunk at a time, so a consumer can
// close segments while the stream is still arriving. Its whole state is
// the open segment's size: rule (ii) tests the incoming chunk, so it needs
// no lookahead.
type Splitter struct {
	p       Params
	divisor uint64
	bytes   int
	open    bool // the open segment holds at least one chunk
}

// NewSplitter returns a Splitter for valid parameters p and a divisor from
// Divisor.
func NewSplitter(p Params, divisor uint64) *Splitter {
	return &Splitter{p: p, divisor: divisor}
}

// Add accounts for the stream's next chunk and reports the boundaries it
// places: before — c does not fit the open segment (rule ii), which ends
// with the previous chunk while c opens the next one; after — the segment
// holding c ends with c (rule i). Both can hold for one oversized chunk.
// The chunks after the last boundary form the stream's final segment.
func (s *Splitter) Add(c trace.ChunkRef) (before, after bool) {
	if s.open && s.bytes+int(c.Size) > s.p.MaxBytes {
		before = true
		s.bytes = 0
	}
	s.bytes += int(c.Size)
	s.open = true
	if s.bytes >= s.p.MinBytes && c.FP.Uint64()%s.divisor == s.divisor-1 {
		after = true
		s.bytes, s.open = 0, false
	}
	return before, after
}

// Split partitions a whole chunk stream into segments with the divisor its
// own mean chunk size gives. The boundary test itself depends only on
// chunk content (fingerprint), so identical sub-streams segment
// identically.
func Split(chunks []trace.ChunkRef, p Params) ([]Segment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(chunks) == 0 {
		return nil, nil
	}
	var total uint64
	for _, c := range chunks {
		total += uint64(c.Size)
	}
	return split(chunks, p, Divisor(p, int(total/uint64(len(chunks))))), nil
}

// split runs a Splitter over the whole of chunks.
func split(chunks []trace.ChunkRef, p Params, divisor uint64) []Segment {
	sp := NewSplitter(p, divisor)
	var segs []Segment
	start := 0
	for i, c := range chunks {
		before, after := sp.Add(c)
		if before {
			segs = append(segs, Segment{Start: start, End: i})
			start = i
		}
		if after {
			segs = append(segs, Segment{Start: start, End: i + 1})
			start = i + 1
		}
	}
	if start < len(chunks) {
		segs = append(segs, Segment{Start: start, End: len(chunks)})
	}
	return segs
}

// MinFingerprint returns the minimum chunk fingerprint within the segment,
// the value MinHash encryption derives the segment key from (Algorithm 4).
// It panics on an empty segment.
func MinFingerprint(chunks []trace.ChunkRef, s Segment) trace.ChunkRef {
	if s.Len() <= 0 {
		panic("segment: MinFingerprint on empty segment")
	}
	min := chunks[s.Start]
	for _, c := range chunks[s.Start+1 : s.End] {
		if c.FP.Less(min.FP) {
			min = c
		}
	}
	return min
}

// ScrambleOrder draws Algorithm 5's scrambled upload order of a segment's
// n chunks: each chunk in turn goes to the front or the back of the output
// with equal probability, one rng.Intn(2) draw per chunk in segment order.
// The result lists segment positions in upload order — the chunks sent to
// the front in reverse, then those sent to the back.
func ScrambleOrder(n int, rng *rand.Rand) []int {
	buf := make([]int, 2*n)
	front, back := n, n // [front, back) holds the order so far
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			front--
			buf[front] = i
		} else {
			buf[back] = i
			back++
		}
	}
	return buf[front:back]
}
