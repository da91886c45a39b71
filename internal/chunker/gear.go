package chunker

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/fphash"
)

// Algorithm selects the rolling-hash family of a content-defined chunker.
// The two algorithms produce different cut points for the same input: a
// repository chunked with one does not deduplicate against data chunked
// with the other. The zero value is AlgoRabin, the original format.
type Algorithm int

const (
	// AlgoRabin cuts with the rolling Rabin fingerprint (the original
	// freqdedup format; see ContentDefined).
	AlgoRabin Algorithm = iota
	// AlgoGear cuts with a gear hash (FastCDC-style): one table lookup,
	// one shift, and one add per byte, plus cut-point skipping: about
	// 1.6x the speed of Rabin's four-lane scan on one core. Where Rabin
	// scans each refill on two cores, gear still chunks about 1.3x as
	// fast, on half the CPU per byte (BenchmarkChunkerGear vs
	// BenchmarkChunkerCDC, and their cores). Explicitly a new format —
	// cut points are NOT compatible with AlgoRabin.
	AlgoGear
)

// String implements fmt.Stringer for diagnostics and bench labels.
func (a Algorithm) String() string {
	switch a {
	case AlgoRabin:
		return "rabin"
	case AlgoGear:
		return "gear"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// New returns the content-defined chunker selected by p.Algorithm reading
// from r. It is the one constructor pipeline code should use; the concrete
// constructors remain for callers that need the specific type.
func New(r io.Reader, p Params) (Chunker, error) {
	switch p.Algorithm {
	case AlgoRabin:
		return NewContentDefined(r, p)
	case AlgoGear:
		return NewGear(r, p)
	}
	return nil, fmt.Errorf("chunker: unknown algorithm %d", int(p.Algorithm))
}

// gearWindow is the effective window of the gear hash: h = h<<1 + t[b]
// shifts each byte's contribution out of the 64-bit state after 64
// positions, so the hash at any position depends on exactly the trailing
// 64 bytes (fewer within the first 64 bytes of a chunk).
const gearWindow = 64

// gearTable is the byte-to-noise table of the gear hash. It is generated
// by a fixed splitmix64 sequence so the table — which IS the chunk-cut
// format — is deterministic across builds and platforms.
var gearTable = func() (t [256]uint64) {
	s := uint64(0x5a1f0e6c2b3d4958)
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// gearMask returns the boundary mask for an average chunk size: the top
// log2(avg) bits of the hash. Top bits are fed by every byte of the
// window (lower table bits reach them through the shift chain and carry
// propagation), where low bits would see only the newest bytes. avg must
// be a power of two (enforced by Params.Validate).
func gearMask(avg int) uint64 {
	k := bits.TrailingZeros(uint(avg))
	if k == 0 {
		return 0 // avg == 1: every position is a boundary
	}
	return ((uint64(1) << k) - 1) << (64 - k)
}

// gearCut returns the boundary position within data (1 <= cut <=
// len(data)), under the same contract as ContentDefined.findCut: data is
// either Max bytes long or the final remainder of the stream, the hash
// restarts at the chunk's first byte, and the first position at or past
// min where h&mask == 0 cuts the chunk. Because the gear hash forgets
// bytes older than gearWindow, hashing starts at min-gearWindow instead
// of 0 — the cut-point-skipping trick that makes gear chunking fast —
// while remaining bit-identical to the byte-at-a-time reference.
func gearCut(data []byte, min int, mask uint64) int {
	if len(data) <= min {
		return len(data)
	}
	var h uint64
	pre := min - gearWindow
	if pre < 0 {
		pre = 0
	}
	for _, b := range data[pre:min] {
		h = h<<1 + gearTable[b]
	}
	if h&mask == 0 {
		return min
	}
	for i := min; i < len(data); i++ {
		h = h<<1 + gearTable[data[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return len(data)
}

// Gear cuts the input at content-defined boundaries using a gear hash:
// a boundary is declared at the first position past Min where the top
// log2(Avg) hash bits are all zero, or at Max bytes. It has the same
// pooled-buffer ownership contract as ContentDefined and ignores
// Params.Window (the gear window is fixed at 64 bytes by construction).
type Gear struct {
	la   lookahead
	p    Params
	mask uint64
}

var _ Chunker = (*Gear)(nil)

// NewGear returns a gear-hash chunker reading from r.
func NewGear(r io.Reader, p Params) (*Gear, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Gear{
		la:   newLookahead(r, lookaheadSize(p.Max)),
		p:    p,
		mask: gearMask(p.Avg),
	}, nil
}

// Next implements Chunker.
func (g *Gear) Next() (Chunk, error) {
	data, err := g.la.take(g.p.Max)
	if errors.Is(err, io.EOF) {
		g.release()
	}
	if err != nil {
		return Chunk{}, err
	}
	cut := gearCut(data, g.p.Min, g.mask)
	buf := bufpool.Get(cut)
	copy(buf, data[:cut])
	ch := Chunk{Data: buf, Offset: g.la.offset}
	if !g.p.DeferFingerprint {
		ch.Fingerprint = fphash.FromBytes(buf)
	}
	g.la.consume(cut)
	return ch, nil
}

// release hands the lookahead back to the pool.
func (g *Gear) release() { g.la.release() }

// chunkCountHint estimates how many chunks remain, for All's preallocation.
func (g *Gear) chunkCountHint() int {
	return remainingHint(g.la.r, g.p.Avg)
}
