package chunker

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"freqdedup/internal/fphash"
)

// referenceGear is the naive byte-at-a-time gear chunker, the golden
// oracle for Gear: the hash restarts at zero at every chunk start and
// rolls through EVERY byte of the chunk (no cut-point skipping, no
// lookahead buffer). Gear must emit byte-identical cut points and
// fingerprints.
type referenceGear struct {
	r       io.Reader
	p       Params
	mask    uint64
	readBuf []byte
	buf     []byte
	offset  int64
	eof     bool
}

func newReferenceGear(r io.Reader, p Params) (*referenceGear, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &referenceGear{
		r:       r,
		p:       p,
		mask:    gearMask(p.Avg),
		readBuf: make([]byte, 64*1024),
	}, nil
}

func (c *referenceGear) fill() (bool, error) {
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

func (c *referenceGear) Next() (Chunk, error) {
	var h uint64
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
		h = h<<1 + gearTable[c.buf[pos]]
		pos++
		if pos >= c.p.Max {
			cut = pos
		} else if pos >= c.p.Min && h&c.mask == 0 {
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

// compareGearAgainstReference chunks data with the reference and the
// given optimized chunker and fails on the first divergence in offset,
// size, content, or fingerprint.
func compareGearAgainstReference(t *testing.T, data []byte, p Params, opt Chunker) {
	t.Helper()
	ref, err := newReferenceGear(bytes.NewReader(data), p)
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
		got.Release()
	}
}

// gearGoldenParams is the parameter matrix shared by the golden tests:
// it crosses Min below/at/above the 64-byte gear window, degenerate
// fixed-size parameters, and the default configuration.
var gearGoldenParams = []Params{
	{Min: 2048, Avg: 8192, Max: 16384, Algorithm: AlgoGear}, // default sizes
	{Min: 512, Avg: 2048, Max: 4096, Algorithm: AlgoGear},
	{Min: 2048, Avg: 2048, Max: 2048, Algorithm: AlgoGear}, // degenerate fixed-size
	{Min: 16, Avg: 64, Max: 256, Algorithm: AlgoGear},      // Min smaller than the gear window
	{Min: 64, Avg: 128, Max: 300, Algorithm: AlgoGear},     // Min exactly the gear window
}

// TestGearGoldenAgainstReference: across sizes and parameters, the
// cut-point-skipping serial Gear cuts exactly where the byte-at-a-time
// reference does.
func TestGearGoldenAgainstReference(t *testing.T) {
	sizes := []int{0, 1, 100, 2047, 2048, 2049, 16384, 16385, 1 << 20}
	for pi, p := range gearGoldenParams {
		for _, n := range sizes {
			g, err := NewGear(bytes.NewReader(randBytes(int64(200*pi+n%89+1), n)), p)
			if err != nil {
				t.Fatal(err)
			}
			compareGearAgainstReference(t, randBytes(int64(200*pi+n%89+1), n), p, g)
		}
	}
	// Low-entropy inputs: a constant stream keeps the hash on a fixed
	// trajectory and exercises the Max-forced cut path.
	p := gearGoldenParams[0]
	g, err := NewGear(bytes.NewReader(make([]byte, 256*1024)), p)
	if err != nil {
		t.Fatal(err)
	}
	compareGearAgainstReference(t, make([]byte, 256*1024), p, g)
	// Repeating pattern: periodic hashes, many identical boundaries.
	pat := bytes.Repeat([]byte("abcdefgh"), 64*1024)
	g, err = NewGear(bytes.NewReader(pat), p)
	if err != nil {
		t.Fatal(err)
	}
	compareGearAgainstReference(t, pat, p, g)
}

// TestGearGoldenFragmentedReader runs the golden comparison with a reader
// that trickles bytes, so buffer refill and compaction paths are crossed
// mid-chunk.
func TestGearGoldenFragmentedReader(t *testing.T) {
	data := randBytes(79, 512*1024)
	p := Params{Min: 2048, Avg: 8192, Max: 16384, Algorithm: AlgoGear}
	g, err := NewGear(iotest{r: bytes.NewReader(data), max: 1013}, p)
	if err != nil {
		t.Fatal(err)
	}
	compareGearAgainstReference(t, data, p, g)
}

// TestGearFactory: chunker.New dispatches on Params.Algorithm.
func TestGearFactory(t *testing.T) {
	data := randBytes(80, 128*1024)
	p := DefaultParams()
	p.Algorithm = AlgoGear
	c, err := New(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*Gear); !ok {
		t.Fatalf("New(AlgoGear) = %T, want *Gear", c)
	}
	compareGearAgainstReference(t, data, p, c)
	if _, err := New(bytes.NewReader(data), Params{Min: 1, Avg: 2, Max: 4, Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
}

// TestGearDiffersFromRabin pins the format warning in the docs: the two
// algorithms cut the same stream differently, so they must never be
// mixed within one repository.
func TestGearDiffersFromRabin(t *testing.T) {
	data := randBytes(81, 1<<20)
	gp := DefaultParams()
	gp.Algorithm = AlgoGear
	g, err := New(bytes.NewReader(data), gp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(bytes.NewReader(data), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gc, err := All(g)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := All(r)
	if err != nil {
		t.Fatal(err)
	}
	same := len(gc) == len(rc)
	if same {
		for i := range gc {
			if gc[i].Offset != rc[i].Offset {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("gear and Rabin produced identical cut points over 1 MiB of random data — format separation lost")
	}
}

// FuzzGearMatchesReference fuzzes arbitrary inputs through the reference
// and Gear, with Min below, at and above the gear window. Run with `go
// test -fuzz=FuzzGearMatchesReference`; under plain `go test` the seed
// corpus doubles as extra golden cases.
func FuzzGearMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("tiny"), uint8(1))
	f.Add(randBytes(22, 70000), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB, 0}, 9000), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		params := []Params{
			{Min: 2048, Avg: 8192, Max: 16384, Algorithm: AlgoGear},
			{Min: 64, Avg: 256, Max: 1024, Algorithm: AlgoGear},
			{Min: 16, Avg: 32, Max: 48, Algorithm: AlgoGear},
		}
		p := params[int(sel)%len(params)]
		g, err := NewGear(bytes.NewReader(data), p)
		if err != nil {
			t.Fatal(err)
		}
		compareGearAgainstReference(t, data, p, g)
	})
}

// TestGearDeferFingerprint: deferred mode leaves Fingerprint zero but
// cuts identically.
func TestGearDeferFingerprint(t *testing.T) {
	data := randBytes(33, 128*1024)
	p := DefaultParams()
	p.Algorithm = AlgoGear
	p.DeferFingerprint = true
	def, err := NewGear(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	p.DeferFingerprint = false
	eager, err := NewGear(bytes.NewReader(data), p)
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
