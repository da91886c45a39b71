package chunker

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"freqdedup/internal/fphash"
)

func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func reassemble(t *testing.T, chunks []Chunk) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c.Data)
	}
	return buf.Bytes()
}

func TestFixedExactMultiple(t *testing.T) {
	data := randBytes(1, 4096*4)
	chunks, err := All(NewFixed(bytes.NewReader(data), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	for i, c := range chunks {
		if c.Size() != 4096 {
			t.Errorf("chunk %d size %d, want 4096", i, c.Size())
		}
		if c.Offset != int64(i)*4096 {
			t.Errorf("chunk %d offset %d, want %d", i, c.Offset, i*4096)
		}
		if c.Fingerprint != fphash.FromBytes(c.Data) {
			t.Errorf("chunk %d fingerprint mismatch", i)
		}
	}
	if !bytes.Equal(reassemble(t, chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
}

func TestFixedTrailingShortChunk(t *testing.T) {
	data := randBytes(2, 4096+100)
	chunks, err := All(NewFixed(bytes.NewReader(data), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	if chunks[1].Size() != 100 {
		t.Fatalf("trailing chunk size %d, want 100", chunks[1].Size())
	}
	if !bytes.Equal(reassemble(t, chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
}

func TestFixedEmptyInput(t *testing.T) {
	chunks, err := All(NewFixed(bytes.NewReader(nil), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("got %d chunks from empty input, want 0", len(chunks))
	}
}

func TestFixedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixed(0) did not panic")
		}
	}()
	NewFixed(bytes.NewReader(nil), 0)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestFixedPropagatesReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := NewFixed(errReader{boom}, 16).Next()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestCDCPropagatesReadError(t *testing.T) {
	boom := errors.New("boom")
	c, err := NewContentDefined(errReader{boom}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// zeroReader returns (0, nil) forever: a reader that makes no progress.
type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

// TestNoProgressReader: a reader that keeps returning (0, nil) ends the
// stream with io.ErrNoProgress instead of spinning, in both content-defined
// chunkers, whether it stalls at once or after some data.
func TestNoProgressReader(t *testing.T) {
	for _, algo := range []Algorithm{AlgoRabin, AlgoGear} {
		for _, prefix := range []int{0, 5000} {
			p := DefaultParams()
			p.Algorithm = algo
			c, err := New(io.MultiReader(bytes.NewReader(randBytes(93, prefix)), zeroReader{}), p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Next(); !errors.Is(err, io.ErrNoProgress) {
				t.Errorf("%v after %d bytes: Next err = %v, want io.ErrNoProgress", algo, prefix, err)
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"default", DefaultParams(), true},
		{"zero min", Params{Min: 0, Avg: 8, Max: 16}, false},
		{"min>avg", Params{Min: 9, Avg: 8, Max: 16}, false},
		{"avg>max", Params{Min: 2, Avg: 32, Max: 16}, false},
		{"avg not pow2", Params{Min: 2, Avg: 12, Max: 16}, false},
		{"negative window", Params{Min: 2, Avg: 8, Max: 16, Window: -1}, false},
		{"tight", Params{Min: 8, Avg: 8, Max: 8}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestCDCReassembly(t *testing.T) {
	data := randBytes(3, 1<<20)
	c, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := All(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(t, chunks), data) {
		t.Fatal("reassembled data differs from input")
	}
	// Offsets must be contiguous.
	var off int64
	for i, ch := range chunks {
		if ch.Offset != off {
			t.Fatalf("chunk %d offset %d, want %d", i, ch.Offset, off)
		}
		off += int64(ch.Size())
	}
}

func TestCDCSizeBounds(t *testing.T) {
	data := randBytes(4, 1<<20)
	p := DefaultParams()
	c, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := All(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("too few chunks: %d", len(chunks))
	}
	for i, ch := range chunks {
		if ch.Size() > p.Max {
			t.Errorf("chunk %d size %d exceeds max %d", i, ch.Size(), p.Max)
		}
		if i < len(chunks)-1 && ch.Size() < p.Min {
			t.Errorf("non-final chunk %d size %d below min %d", i, ch.Size(), p.Min)
		}
	}
}

func TestCDCAverageSize(t *testing.T) {
	data := randBytes(5, 4<<20)
	p := DefaultParams()
	c, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := All(c)
	if err != nil {
		t.Fatal(err)
	}
	avg := len(data) / len(chunks)
	// With min/max clamping the realized average for an 8K target typically
	// lands in [5K, 13K]; just assert it is in the right ballpark.
	if avg < p.Avg/2 || avg > p.Max {
		t.Fatalf("average chunk size %d far from target %d", avg, p.Avg)
	}
}

// TestCDCContentShift is the defining property of content-defined chunking:
// inserting bytes near the front must not change chunk boundaries far from
// the edit, so most chunks (and their fingerprints) are preserved.
func TestCDCContentShift(t *testing.T) {
	data := randBytes(6, 1<<20)
	chunksOf := func(b []byte) map[fphash.Fingerprint]bool {
		c, err := NewContentDefined(bytes.NewReader(b), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := All(c)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[fphash.Fingerprint]bool, len(chunks))
		for _, ch := range chunks {
			set[ch.Fingerprint] = true
		}
		return set
	}
	orig := chunksOf(data)
	edited := append(append([]byte("INSERTED PREFIX BYTES"), data[:512]...), data[512:]...)
	got := chunksOf(edited)
	var common int
	for fp := range got {
		if orig[fp] {
			common++
		}
	}
	if frac := float64(common) / float64(len(orig)); frac < 0.8 {
		t.Fatalf("only %.0f%% of chunks survived a front insertion; CDC should localize the change", frac*100)
	}
}

// TestCDCFixedEquivalenceWhenTight confirms that Min==Avg==Max degenerates
// into fixed-size chunking.
func TestCDCFixedEquivalenceWhenTight(t *testing.T) {
	data := randBytes(7, 64*1024+9)
	p := Params{Min: 4096, Avg: 4096, Max: 4096}
	cdc, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := All(cdc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := All(NewFixed(bytes.NewReader(data), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cdc %d chunks, fixed %d chunks", len(a), len(b))
	}
	for i := range a {
		if a[i].Fingerprint != b[i].Fingerprint {
			t.Fatalf("chunk %d differs between tight CDC and fixed", i)
		}
	}
}

// TestCDCDeterministic: chunking the same input twice yields identical cuts.
func TestCDCDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		data := randBytes(seed, 128*1024)
		run := func() []Chunk {
			c, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			chunks, err := All(c)
			if err != nil {
				t.Fatal(err)
			}
			return chunks
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Fingerprint != b[i].Fingerprint || a[i].Offset != b[i].Offset {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCDCReaderFragmentation: boundaries must not depend on how the reader
// fragments its reads.
func TestCDCReaderFragmentation(t *testing.T) {
	data := randBytes(8, 256*1024)
	cut := func(r io.Reader) []fphash.Fingerprint {
		c, err := NewContentDefined(r, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := All(c)
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]fphash.Fingerprint, len(chunks))
		for i, ch := range chunks {
			fps[i] = ch.Fingerprint
		}
		return fps
	}
	whole := cut(bytes.NewReader(data))
	frag := cut(iotest{r: bytes.NewReader(data), max: 7})
	if len(whole) != len(frag) {
		t.Fatalf("fragmented read changed chunk count: %d vs %d", len(whole), len(frag))
	}
	for i := range whole {
		if whole[i] != frag[i] {
			t.Fatalf("fragmented read changed chunk %d", i)
		}
	}
}

// iotest limits each Read to max bytes, simulating a slow network reader.
type iotest struct {
	r   io.Reader
	max int
}

func (s iotest) Read(p []byte) (int, error) {
	if len(p) > s.max {
		p = p[:s.max]
	}
	return s.r.Read(p)
}

func TestCDCEmptyInput(t *testing.T) {
	c, err := NewContentDefined(bytes.NewReader(nil), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next on empty input = %v, want io.EOF", err)
	}
}

func TestCDCTinyInput(t *testing.T) {
	data := []byte("tiny")
	c, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := All(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || !bytes.Equal(chunks[0].Data, data) {
		t.Fatalf("tiny input not returned as single chunk: %+v", chunks)
	}
}

// TestCDCSteadyStateAllocs: once warm, a released chunk stream allocates
// nothing — not per chunk, and not per lookahead refill, where the Rabin
// scan runs. Each measured run drains a whole lookahead buffer's worth of
// chunks, so a per-scan allocation shows up as at least one per run.
func TestCDCSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p := DefaultParams()
	la := lookaheadSize(p.Max)
	const runs = 4
	data := randBytes(41, (runs+2)*la)
	c, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	var chunked int
	allocs := testing.AllocsPerRun(runs, func() {
		for stop := chunked + la; chunked < stop; {
			ch, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			chunked += ch.Size()
			ch.Release()
		}
	})
	if allocs > 0 {
		t.Fatalf("%.0f allocations per lookahead buffer of chunks, want 0", allocs)
	}
}

// TestLookaheadRecycledAfterEOF holds both content-defined chunkers to
// handing their lookahead buffer back at io.EOF: a chunker created after
// another one read its stream to the end allocates less than a lookahead.
// It passes on the first of up to eight tries: sync.Pool keeps a Put in
// its P's private slot, which a Get after a P migration does not see.
func TestLookaheadRecycledAfterEOF(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, algo := range []Algorithm{AlgoRabin, AlgoGear} {
		p := DefaultParams()
		p.Algorithm = algo
		la := lookaheadSize(p.Max)
		data := randBytes(43, 3*la)
		var got uint64
		for try := 0; try < 8; try++ {
			c, err := New(bytes.NewReader(data), p)
			if err != nil {
				t.Fatal(err)
			}
			for {
				ch, err := c.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				ch.Release()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			next, err := New(bytes.NewReader(data), p)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(next)
			if got = after.TotalAlloc - before.TotalAlloc; got < uint64(la) {
				break
			}
		}
		if got >= uint64(la) {
			t.Errorf("%v: a chunker created after another reached EOF allocated %d bytes, want < %d (no lookahead)", algo, got, la)
		}
	}
}

func BenchmarkContentDefined(b *testing.B) {
	data := randBytes(9, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := NewContentDefined(bytes.NewReader(data), DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := All(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixed(b *testing.B) {
	data := randBytes(10, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := All(NewFixed(bytes.NewReader(data), 4096)); err != nil {
			b.Fatal(err)
		}
	}
}
