package chunker

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"

	"freqdedup/internal/rabin"
)

// predictParams are the parameter sets the predicted-cut tests run under:
// the default, Min equal to the window, Max equal to Min (every cut
// forced), and Min below the window.
var predictParams = []Params{
	DefaultParams(),
	{Min: rabin.DefaultWindow, Avg: 256, Max: 1024},
	{Min: 64, Avg: 64, Max: 64, Window: 64},
	{Min: 16, Avg: 64, Max: 256},
}

// referenceChunks cuts data with referenceCDC.
func referenceChunks(data []byte, p Params) []Chunk {
	ref, err := newReferenceCDC(bytes.NewReader(data), p)
	if err != nil {
		panic(err)
	}
	chunks, err := All(ref)
	if err != nil {
		panic(err) // a bytes.Reader does not fail
	}
	return chunks
}

// predictedCut is one chunk cut by cutPredicted, and whether NextAt cut it.
type predictedCut struct {
	Chunk
	predicted bool
}

// cutPredicted cuts r the way a backup with a parent does: after a chunk
// whose SHA-256 some parent chunk has, it predicts the parent's next
// chunk with NextAt, and falls back to Next when NextAt declines. Where
// the stream has no anchor it still predicts, from parent chunks taken in
// turn, so that wrong predictions of every kind reach NextAt too.
func cutPredicted(t *testing.T, r io.Reader, p Params, parent []Chunk) []predictedCut {
	t.Helper()
	c, err := NewContentDefined(r, p)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][sha256.Size]byte, len(parent))
	at := map[[sha256.Size]byte]int{}
	for i, ch := range parent {
		sums[i] = sha256.Sum256(ch.Data)
		if _, ok := at[sums[i]]; !ok {
			at[sums[i]] = i
		}
	}
	var out []predictedCut
	next, turn := -1, 0
	for {
		var ch Chunk
		ok := false
		if len(parent) > 0 {
			i := next
			if i < 0 || i >= len(parent) {
				i = turn % len(parent)
				turn++
			}
			if ch, ok, err = c.NextAt(len(parent[i].Data), sums[i]); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
		}
		if !ok {
			if ch, err = c.Next(); errors.Is(err, io.EOF) {
				return out
			} else if err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, predictedCut{ch, ok})
		next = -1
		if i, hit := at[sha256.Sum256(ch.Data)]; hit {
			next = i + 1
		}
	}
}

// checkPredictedCuts holds the predicted cuts of data to the reference
// chunker's, and returns how many bytes NextAt cut.
func checkPredictedCuts(t *testing.T, data []byte, p Params, r io.Reader, parent []Chunk) int {
	t.Helper()
	want := referenceChunks(data, p)
	got := cutPredicted(t, r, p, parent)
	predicted := 0
	for i := 0; i < min(len(got), len(want)); i++ {
		g, w := got[i], want[i]
		if g.Offset != w.Offset || !bytes.Equal(g.Data, w.Data) || g.Fingerprint != w.Fingerprint {
			t.Fatalf("chunk %d (predicted %v): offset %d len %d, reference offset %d len %d",
				i, g.predicted, g.Offset, len(g.Data), w.Offset, len(w.Data))
		}
		if g.predicted {
			predicted += len(g.Data)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d chunks, reference %d", len(got), len(want))
	}
	return predicted
}

// mutate returns a copy of base changed by one edit at at: op 0 inserts
// n bytes, 1 deletes n, 2 overwrites n, and 3 truncates the stream.
func mutate(base []byte, op uint8, at, n uint32, seed int64) []byte {
	if len(base) == 0 {
		return append([]byte(nil), randBytes(seed, int(n%512))...)
	}
	a := int(at) % len(base)
	k := int(n % 8192)
	switch op % 4 {
	case 0:
		out := append([]byte(nil), base[:a]...)
		out = append(out, randBytes(seed, k)...)
		return append(out, base[a:]...)
	case 1:
		return append(append([]byte(nil), base[:a]...), base[min(a+k, len(base)):]...)
	case 2:
		out := append([]byte(nil), base...)
		copy(out[a:min(a+k, len(out))], randBytes(seed, k))
		return out
	default:
		return append([]byte(nil), base[:a]...)
	}
}

// FuzzPredictedCuts chunks a base stream, edits it (insert, delete,
// overwrite or truncate), and cuts the edited stream with NextAt
// predictions drawn from the base's chunks, checked by their real
// SHA-256. The cuts must be the reference chunker's, whatever the
// predictions and however the reader fragments the stream.
func FuzzPredictedCuts(f *testing.F) {
	base := randBytes(61, 100*1024)
	f.Add(base, uint8(0), uint32(30000), uint32(700), uint8(0), uint16(0))
	f.Add(base, uint8(1), uint32(50000), uint32(3000), uint8(1), uint16(4093))
	f.Add(base, uint8(2), uint32(70000), uint32(100), uint8(2), uint16(0))
	f.Add(base, uint8(0), uint32(10), uint32(5), uint8(3), uint16(47))
	// Min equal to the window and Max equal to Min.
	f.Add(randBytes(62, 5000), uint8(2), uint32(900), uint32(64), uint8(2), uint16(0))
	f.Add(randBytes(63, 8000), uint8(1), uint32(4000), uint32(48), uint8(1), uint16(7))
	// The stream ends exactly where a predicted chunk ends.
	for sel, p := range predictParams {
		chunks := referenceChunks(base, p)
		end := chunks[len(chunks)/2]
		f.Add(base, uint8(3), uint32(end.Offset)+uint32(len(end.Data)), uint32(0), uint8(sel), uint16(0))
	}
	f.Add([]byte{}, uint8(0), uint32(0), uint32(300), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, base []byte, op uint8, at, n uint32, sel uint8, readSize uint16) {
		p := predictParams[int(sel)%len(predictParams)]
		data := mutate(base, op, at, n, int64(at)^int64(n))
		var r io.Reader = bytes.NewReader(data)
		if readSize > 0 {
			r = iotest{r: r, max: int(readSize)}
		}
		checkPredictedCuts(t, data, p, r, referenceChunks(base, p))
	})
}

// TestPredictedCutsFollowParent edits a 2 MiB stream in a few places, as
// a backup generation edits its parent, and cuts it with predictions from
// the parent under every parameter set: the cuts are the reference's, and
// where the cuts are content-defined (Max above Min) and so resynchronise
// after an edit, NextAt cuts most of the bytes.
func TestPredictedCutsFollowParent(t *testing.T) {
	base := randBytes(64, 2<<20)
	data := base
	rng := rand.New(rand.NewSource(65))
	for op := uint8(0); op < 6; op++ {
		data = mutate(data, op, rng.Uint32(), rng.Uint32()%4096, int64(op))
	}
	for _, p := range predictParams {
		predicted := checkPredictedCuts(t, data, p, bytes.NewReader(data), referenceChunks(base, p))
		if p.Max > p.Min && predicted < len(data)*9/10 {
			t.Fatalf("%+v: NextAt cut %d of %d bytes", p, predicted, len(data))
		}
	}
}

// TestNextAtDeclines pins what NextAt refuses, consuming nothing: a
// length past Max or past the stream, a sum that is not the bytes', and a
// length whose end is no boundary. After each refusal Next cuts where the
// reference does.
func TestNextAtDeclines(t *testing.T) {
	p := DefaultParams()
	data := randBytes(66, 64*1024)
	want := referenceChunks(data, p)
	c, err := NewContentDefined(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	first := want[0].Data
	for _, tc := range []struct {
		name string
		n    int
		sum  [sha256.Size]byte
	}{
		{"past Max", p.Max + 1, sha256.Sum256(first)},
		{"zero", 0, sha256.Sum256(nil)},
		{"wrong sum", len(first), sha256.Sum256(data[1 : len(first)+1])},
		{"no boundary", len(first) - 1, sha256.Sum256(first[:len(first)-1])},
	} {
		if _, ok, err := c.NextAt(tc.n, tc.sum); ok || err != nil {
			t.Fatalf("%s: NextAt = %v, %v; want a refusal", tc.name, ok, err)
		}
	}
	ch, ok, err := c.NextAt(len(first), sha256.Sum256(first))
	if !ok || err != nil || !bytes.Equal(ch.Data, first) || ch.Offset != 0 {
		t.Fatalf("NextAt of the first chunk = %v, %v", ok, err)
	}
	for i := 1; i < len(want); i++ {
		ch, err := c.Next()
		if err != nil || ch.Offset != want[i].Offset || !bytes.Equal(ch.Data, want[i].Data) {
			t.Fatalf("chunk %d after the refusals: %v", i, err)
		}
	}
	if _, ok, err := c.NextAt(len(first), sha256.Sum256(first)); ok || !errors.Is(err, io.EOF) {
		t.Fatalf("NextAt at the end = %v, %v; want io.EOF", ok, err)
	}
}
