package chunker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/rabin"
)

// referenceCDC is the seed implementation of content-defined chunking,
// kept verbatim as the golden oracle: it rolls the Rabin hash one byte at
// a time through rabin.Hash.Roll, double-copies chunks out of a growing
// lookahead buffer, and fingerprints inline. The optimized ContentDefined
// must emit byte-identical cut points and fingerprints.
type referenceCDC struct {
	r       io.Reader
	p       Params
	mask    uint64
	magic   uint64
	hash    *rabin.Hash
	readBuf []byte
	buf     []byte
	offset  int64
	eof     bool
}

func newReferenceCDC(r io.Reader, p Params) (*referenceCDC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	window := p.Window
	if window == 0 {
		window = rabin.DefaultWindow
	}
	return &referenceCDC{
		r:       r,
		p:       p,
		mask:    uint64(p.Avg - 1),
		magic:   uint64(p.Avg - 1),
		hash:    rabin.New(window),
		readBuf: make([]byte, 64*1024),
	}, nil
}

func (c *referenceCDC) fill() (bool, error) {
	if c.eof {
		return len(c.buf) > 0, nil
	}
	n, err := c.r.Read(c.readBuf)
	if n > 0 {
		c.buf = append(c.buf, c.readBuf[:n]...)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			c.eof = true
			return len(c.buf) > 0, nil
		}
		return false, err
	}
	return true, nil
}

func (c *referenceCDC) Next() (Chunk, error) {
	c.hash.Reset()
	cut := -1
	pos := 0
	for cut < 0 {
		for pos >= len(c.buf) {
			ok, err := c.fill()
			if err != nil {
				return Chunk{}, err
			}
			if !ok || (c.eof && pos >= len(c.buf)) {
				if pos == 0 {
					return Chunk{}, io.EOF
				}
				cut = pos
				break
			}
		}
		if cut >= 0 {
			break
		}
		fp := c.hash.Roll(c.buf[pos])
		pos++
		if pos >= c.p.Max {
			cut = pos
		} else if pos >= c.p.Min && fp&c.mask == c.magic {
			cut = pos
		}
	}
	data := make([]byte, cut)
	copy(data, c.buf[:cut])
	c.buf = c.buf[:copy(c.buf, c.buf[cut:])]
	ch := Chunk{Data: data, Offset: c.offset, Fingerprint: fphash.FromBytes(data)}
	c.offset += int64(cut)
	return ch, nil
}

// compareAgainstReference chunks data with both implementations and fails
// on the first divergence in offset, size, content, or fingerprint.
func compareAgainstReference(t *testing.T, data []byte, p Params) {
	t.Helper()
	compareReaderAgainstReference(t, data, p, bytes.NewReader(data))
}

// compareReaderAgainstReference is compareAgainstReference with the
// optimized chunker reading data through r, so a reader that fragments or
// trickles its reads can drive its lookahead refills.
func compareReaderAgainstReference(t *testing.T, data []byte, p Params, r io.Reader) {
	t.Helper()
	ref, err := newReferenceCDC(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewContentDefined(r, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		want, wantErr := ref.Next()
		got, gotErr := opt.Next()
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("chunk %d: errors diverge: ref %v, opt %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(wantErr, io.EOF) || !errors.Is(gotErr, io.EOF) {
				t.Fatalf("chunk %d: non-EOF termination: ref %v, opt %v", i, wantErr, gotErr)
			}
			return
		}
		if got.Offset != want.Offset {
			t.Fatalf("chunk %d: offset %d, reference %d", i, got.Offset, want.Offset)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("chunk %d (offset %d): content diverges from reference (len %d vs %d)",
				i, got.Offset, len(got.Data), len(want.Data))
		}
		if got.Fingerprint != want.Fingerprint {
			t.Fatalf("chunk %d: fingerprint %v, reference %v", i, got.Fingerprint, want.Fingerprint)
		}
	}
}

// TestCDCGoldenAgainstReference is the refactor's bit-for-bit guarantee at
// the chunker layer: across sizes, parameters, and window configurations,
// the optimized scanner cuts exactly where the seed implementation did.
func TestCDCGoldenAgainstReference(t *testing.T) {
	params := []Params{
		DefaultParams(),
		{Min: 512, Avg: 2048, Max: 4096},
		{Min: 2048, Avg: 2048, Max: 2048},              // degenerate fixed-size
		{Min: 16, Avg: 64, Max: 256},                   // Min smaller than the Rabin window
		{Min: 2048, Avg: 8192, Max: 16384, Window: 16}, // non-default window
	}
	sizes := []int{0, 1, 100, 2047, 2048, 2049, 16384, 16385, 1 << 20}
	for pi, p := range params {
		for _, n := range sizes {
			compareAgainstReference(t, randBytes(int64(100*pi+n%97+1), n), p)
		}
	}
	// Low-entropy inputs: long zero runs keep the fingerprint at zero and
	// exercise the Max-forced cut path.
	compareAgainstReference(t, make([]byte, 256*1024), DefaultParams())
	// Repeating pattern: periodic fingerprints, many identical boundaries.
	pat := bytes.Repeat([]byte("abcdefgh"), 64*1024)
	compareAgainstReference(t, pat, DefaultParams())
}

// TestCDCGoldenFragmentedReader runs the golden comparison with readers
// that fragment or trickle their reads, so the candidate queue is crossed
// by lookahead compaction (the input is two lookahead buffers long) and
// by scans of a handful of bytes — around the window size, and down to a
// byte at a time — under parameters with Min below, equal to and above
// the window.
func TestCDCGoldenFragmentedReader(t *testing.T) {
	data := randBytes(77, 512*1024)
	params := []struct {
		name string
		p    Params
	}{
		{"default", DefaultParams()},
		{"min-below-window", Params{Min: 16, Avg: 64, Max: 256}},
		{"min-equals-window", Params{Min: rabin.DefaultWindow, Avg: 256, Max: 1024}},
		{"window-16", Params{Min: 2048, Avg: 8192, Max: 16384, Window: 16}},
	}
	for _, pc := range params {
		for _, size := range []int{1, 7, 47, 48, 49, 1013, 64*1024 + 3} {
			t.Run(fmt.Sprintf("%s/read=%d", pc.name, size), func(t *testing.T) {
				compareReaderAgainstReference(t, data, pc.p, iotest{r: bytes.NewReader(data), max: size})
			})
		}
	}
}

// FuzzCDCMatchesReference fuzzes arbitrary inputs through both
// implementations, with the optimized chunker reading through a reader
// that returns at most readSize bytes per call (0: unlimited). Run with
// `go test -fuzz=FuzzCDCMatchesReference`; under plain `go test` the seed
// corpus doubles as extra golden cases.
func FuzzCDCMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte("tiny"), uint8(1), uint16(1))
	f.Add(randBytes(21, 70000), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xAB, 0}, 9000), uint8(2), uint16(7))
	// Longer than the 256 KiB lookahead, so refills compact the buffer
	// under a queue of pending candidates.
	f.Add(randBytes(22, 300*1024), uint8(0), uint16(4093))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, readSize uint16) {
		params := []Params{
			DefaultParams(),
			{Min: 64, Avg: 256, Max: 1024},
			{Min: 16, Avg: 32, Max: 48, Window: 8},
		}
		p := params[int(sel)%len(params)]
		var r io.Reader = bytes.NewReader(data)
		if readSize > 0 {
			r = iotest{r: r, max: int(readSize)}
		}
		compareReaderAgainstReference(t, data, p, r)
	})
}

// TestChunkReleaseReuse: released buffers are handed out again, and the
// pooled path never corrupts chunk contents.
func TestChunkReleaseReuse(t *testing.T) {
	data := randBytes(31, 256*1024)
	c, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var reassembled []byte
	for {
		ch, err := c.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ch.Fingerprint != fphash.FromBytes(ch.Data) {
			t.Fatal("fingerprint does not match data")
		}
		reassembled = append(reassembled, ch.Data...)
		ch.Release()
	}
	if !bytes.Equal(reassembled, data) {
		t.Fatal("reassembly with released chunks diverges from input")
	}
}

// TestDeferFingerprint: deferred mode leaves Fingerprint zero but cuts
// identically.
func TestDeferFingerprint(t *testing.T) {
	data := randBytes(32, 128*1024)
	p := DefaultParams()
	p.DeferFingerprint = true
	def, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := All(def)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := All(eager)
	if err != nil {
		t.Fatal(err)
	}
	if len(dc) != len(ec) {
		t.Fatalf("deferred mode changed chunk count: %d vs %d", len(dc), len(ec))
	}
	for i := range dc {
		if !dc[i].Fingerprint.IsZero() {
			t.Fatalf("chunk %d: fingerprint computed despite DeferFingerprint", i)
		}
		if fphash.FromBytes(dc[i].Data) != ec[i].Fingerprint {
			t.Fatalf("chunk %d: deferred content diverges", i)
		}
	}
}
