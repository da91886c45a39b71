package chunker

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"runtime"
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

// maxRun is the longest run the tests offer NextRun: the dedup client's
// handoff batch, its longest run.
const maxRun = 32

// predictedCut is one chunk cut by cutPredicted, and whether NextRun cut
// it.
type predictedCut struct {
	Chunk
	predicted bool
}

// cutPredicted cuts r the way a backup with a parent does: after a chunk
// whose SHA-256 some parent chunk has, it offers NextRun a run of the
// parent's next chunks, and after a run cut short it calls Next. Where the
// stream has no anchor it still predicts, from parent chunks taken in
// turn, so that wrong predictions of every kind reach NextRun too. Run j
// is 1 + runs[j % len(runs)] % maxRun chunks long, maxRun when runs is
// empty.
func cutPredicted(t *testing.T, r io.Reader, p Params, parent []Chunk, runs []byte) []predictedCut {
	t.Helper()
	c, err := NewContentDefined(r, p)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(parent))
	sums := make([][sha256.Size]byte, len(parent))
	at := map[[sha256.Size]byte]int{}
	for i, ch := range parent {
		sizes[i], sums[i] = len(ch.Data), sha256.Sum256(ch.Data)
		if _, ok := at[sums[i]]; !ok {
			at[sums[i]] = i
		}
	}
	var out []predictedCut
	cut := make([]Chunk, maxRun)
	next, turn, run := -1, 0, 0
	for {
		if len(parent) > 0 {
			i := next
			if i < 0 {
				i = turn % len(parent)
				turn++
			}
			n := maxRun
			if len(runs) > 0 {
				n = 1 + int(runs[run%len(runs)])%maxRun
			}
			run++
			n = min(n, len(parent)-i)
			k, err := c.NextRun(sizes[i:i+n], sums[i:i+n], cut)
			if err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			for _, ch := range cut[:k] {
				out = append(out, predictedCut{ch, true})
			}
			if k == n {
				if next = -1; i+n < len(parent) {
					next = i + n
				}
				continue
			}
			next = -1
		}
		ch, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, predictedCut{ch, false})
		if i, hit := at[sha256.Sum256(ch.Data)]; hit && i+1 < len(parent) {
			next = i + 1
		}
	}
}

// checkPredictedCuts holds the predicted cuts of data, read through reads
// of at most readSize bytes (0: whole), to want, the reference chunker's,
// at GOMAXPROCS 1, where the caller of NextRun checks every hash, and 4,
// where helpers start even on fewer cores. It returns how many bytes
// NextRun cut.
func checkPredictedCuts(t *testing.T, data []byte, want []Chunk, p Params, readSize int, parent []Chunk, runs []byte) int {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	predicted := -1
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var r io.Reader = bytes.NewReader(data)
		if readSize > 0 {
			r = iotest{r: r, max: readSize}
		}
		got := cutPredicted(t, r, p, parent, runs)
		cutBytes := 0
		for i := 0; i < min(len(got), len(want)); i++ {
			g, w := got[i], want[i]
			if g.Offset != w.Offset || !bytes.Equal(g.Data, w.Data) || g.Fingerprint != w.Fingerprint {
				t.Fatalf("GOMAXPROCS %d: chunk %d (predicted %v): offset %d len %d, reference offset %d len %d",
					procs, i, g.predicted, g.Offset, len(g.Data), w.Offset, len(w.Data))
			}
			if g.predicted {
				cutBytes += len(g.Data)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d chunks, reference %d", procs, len(got), len(want))
		}
		if predicted >= 0 && cutBytes != predicted {
			t.Fatalf("GOMAXPROCS %d: NextRun cut %d bytes, %d at GOMAXPROCS 1", procs, cutBytes, predicted)
		}
		predicted = cutBytes
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
// overwrite or truncate), and cuts the edited stream with runs of
// predictions drawn from the base's chunks, checked by their real
// SHA-256, the run lengths drawn from runs. The cuts must be the reference
// chunker's, whatever the predictions and run lengths, however the reader
// fragments the stream, and whether or not helpers check the hashes.
func FuzzPredictedCuts(f *testing.F) {
	base := randBytes(61, 100*1024)
	f.Add(base, uint8(0), uint32(30000), uint32(700), uint8(0), uint16(0), []byte{})
	f.Add(base, uint8(1), uint32(50000), uint32(3000), uint8(1), uint16(4093), []byte{0})
	f.Add(base, uint8(2), uint32(70000), uint32(100), uint8(2), uint16(0), []byte{3, 30})
	f.Add(base, uint8(0), uint32(10), uint32(5), uint8(3), uint16(47), []byte{31, 1, 7})
	// Min equal to the window and Max equal to Min.
	f.Add(randBytes(62, 5000), uint8(2), uint32(900), uint32(64), uint8(2), uint16(0), []byte{})
	f.Add(randBytes(63, 8000), uint8(1), uint32(4000), uint32(48), uint8(1), uint16(7), []byte{5})
	// The stream ends exactly where a predicted chunk ends.
	for sel, p := range predictParams {
		chunks := referenceChunks(base, p)
		end := chunks[len(chunks)/2]
		f.Add(base, uint8(3), uint32(end.Offset)+uint32(len(end.Data)), uint32(0), uint8(sel), uint16(0), []byte{byte(sel)})
	}
	f.Add([]byte{}, uint8(0), uint32(0), uint32(300), uint8(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, base []byte, op uint8, at, n uint32, sel uint8, readSize uint16, runs []byte) {
		p := predictParams[int(sel)%len(predictParams)]
		data := mutate(base, op, at, n, int64(at)^int64(n))
		checkPredictedCuts(t, data, referenceChunks(data, p), p, int(readSize), referenceChunks(base, p), runs)
	})
}

// TestPredictedCutsFollowParent edits a 2 MiB stream in a few places, as
// a backup generation edits its parent, and cuts it with runs of
// predictions from the parent under every parameter set and at run
// lengths from one to maxRun: the cuts are the reference's, and where the
// cuts are content-defined (Max above Min) and so resynchronise after an
// edit, NextRun cuts most of the bytes.
func TestPredictedCutsFollowParent(t *testing.T) {
	base := randBytes(64, 2<<20)
	data := base
	rng := rand.New(rand.NewSource(65))
	for op := uint8(0); op < 6; op++ {
		data = mutate(data, op, rng.Uint32(), rng.Uint32()%4096, int64(op))
	}
	for _, p := range predictParams {
		want, parent := referenceChunks(data, p), referenceChunks(base, p)
		for _, runs := range [][]byte{{0}, {7, 19, 2}, nil} {
			predicted := checkPredictedCuts(t, data, want, p, 0, parent, runs)
			if p.Max > p.Min && predicted < len(data)*9/10 {
				t.Fatalf("%+v, runs %v: NextRun cut %d of %d bytes", p, runs, predicted, len(data))
			}
		}
	}
}

// TestPredictedRunDeclines offers runs of the right predictions with one
// wrong one planted at run position j: a sum that is not the bytes', a
// length whose end is no boundary, a length past Max, and zero. NextRun
// must cut exactly the j chunks before it and consume nothing past them,
// so that Next then cuts where the reference does. The runs span two
// lookahead groups, and a run of the right predictions to the end of the
// stream is followed by io.EOF.
func TestPredictedRunDeclines(t *testing.T) {
	p := DefaultParams()
	data := randBytes(66, 512*1024)
	want := referenceChunks(data, p)
	sizes := make([]int, len(want))
	sums := make([][sha256.Size]byte, len(want))
	for i, ch := range want {
		sizes[i], sums[i] = len(ch.Data), sha256.Sum256(ch.Data)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, j := range []int{0, 1, 5, maxRun - 1} {
			w := want[j].Data
			for _, tc := range []struct {
				name string
				n    int
				sum  [sha256.Size]byte
			}{
				{"wrong sum", len(w), sha256.Sum256(data[want[j].Offset+1:][:len(w)])},
				{"no boundary", len(w) - 1, sha256.Sum256(w[:len(w)-1])},
				{"past Max", p.Max + 1, sums[j]},
				{"zero", 0, sha256.Sum256(nil)},
			} {
				c, err := NewContentDefined(bytes.NewReader(data), p)
				if err != nil {
					t.Fatal(err)
				}
				runSizes := append([]int(nil), sizes[:maxRun]...)
				runSums := append([][sha256.Size]byte(nil), sums[:maxRun]...)
				runSizes[j], runSums[j] = tc.n, tc.sum
				out := make([]Chunk, maxRun)
				n, err := c.NextRun(runSizes, runSums, out)
				if n != j || err != nil {
					t.Fatalf("GOMAXPROCS %d, %s at %d: NextRun = %d, %v; want %d chunks", procs, tc.name, j, n, err, j)
				}
				got := out[:n]
				for {
					ch, err := c.Next()
					if errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						t.Fatal(err)
					}
					got = append(got, ch)
				}
				if len(got) != len(want) {
					t.Fatalf("GOMAXPROCS %d, %s at %d: %d chunks, reference %d", procs, tc.name, j, len(got), len(want))
				}
				for i := range got {
					if got[i].Offset != want[i].Offset || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("GOMAXPROCS %d, %s at %d: chunk %d differs from the reference", procs, tc.name, j, i)
					}
				}
			}
		}
		c, err := NewContentDefined(bytes.NewReader(data), p)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Chunk, len(want))
		if n, err := c.NextRun(sizes, sums, out); n != len(want) || err != nil {
			t.Fatalf("GOMAXPROCS %d: NextRun of the whole stream = %d, %v; want %d chunks", procs, n, err, len(want))
		}
		if n, err := c.NextRun(sizes, sums, out); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("GOMAXPROCS %d: NextRun at the end = %d, %v; want io.EOF", procs, n, err)
		}
	}
}
