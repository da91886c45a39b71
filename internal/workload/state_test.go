package workload

import (
	"math/rand"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// testState is a State over fixed 4 KiB chunks drawing from seed.
func testState(seed int64) *State {
	cfg, err := Config{Seed: seed, Chunk: trace.ChunkSizeModel{Min: 4096, Avg: 4096, Max: 4096}}.withDefaults()
	if err != nil {
		panic(err)
	}
	return newState(cfg)
}

// dirStream builds a stream of dirs directories of perDir 16 KiB objects,
// every directory with volatility vol.
func dirStream(st *State, dirs, perDir int, vol float64) *Stream {
	s := &Stream{}
	for d := 0; d < dirs; d++ {
		st.dirs++
		for f := 0; f < perDir; f++ {
			e := st.FreshExtent(16384)
			e.vol, e.dir = vol, st.dirs
			s.extents = append(s.extents, e)
		}
	}
	return s
}

func streamMultiset(s *Stream) map[fphash.Fingerprint]int {
	out := make(map[fphash.Fingerprint]int)
	for _, e := range s.extents {
		for _, c := range e.chunks {
			out[c.FP]++
		}
	}
	return out
}

func sameMultiset(a, b map[fphash.Fingerprint]int) bool {
	if len(a) != len(b) {
		return false
	}
	for fp, n := range a {
		if b[fp] != n {
			return false
		}
	}
	return true
}

func TestShuffleDirsPreservesContent(t *testing.T) {
	st := testState(1)
	s := dirStream(st, 4, 10, 1.0)
	before := append([]*Extent(nil), s.extents...)
	st.shuffleDirs(s, 0.5)
	if !sameMultiset(streamMultiset(&Stream{extents: before}), streamMultiset(s)) {
		t.Fatal("shuffle changed the chunk population")
	}
	var moved int
	for i, e := range s.extents {
		if e.dir != before[i].dir {
			t.Fatalf("object %d left its directory", i)
		}
		if e != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("shuffle(0.5) moved nothing")
	}
}

func TestShuffleDirsSkipsStableDirs(t *testing.T) {
	st := testState(2)
	s := dirStream(st, 3, 8, 0) // all stable
	before := append([]*Extent(nil), s.extents...)
	st.shuffleDirs(s, 1.0)
	for i := range before {
		if s.extents[i] != before[i] {
			t.Fatal("shuffle moved objects in stable directories")
		}
	}
}

func TestDeleteFromDirOnlyVolatile(t *testing.T) {
	st := testState(3)
	s := dirStream(st, 2, 5, 0)
	s.extents = append(s.extents, dirStream(st, 1, 5, 2.0).extents...)
	s.extents = append(s.extents, dirStream(st, 1, 5, 1.0).extents...)
	st.deleteFromDir(s, 3)
	if got := len(s.extents); got != 17 {
		t.Fatalf("%d objects left, want 20-3", got)
	}
	// Stable dirs untouched; the deletions all hit the most volatile one.
	perDir := map[float64]int{}
	for _, e := range s.extents {
		perDir[e.vol]++
	}
	if perDir[0] != 10 || perDir[2.0] != 2 || perDir[1.0] != 5 {
		t.Fatalf("objects per volatility after deletion: %v", perDir)
	}
}

func TestDeleteFromDirNoVolatile(t *testing.T) {
	st := testState(4)
	s := dirStream(st, 2, 5, 0)
	st.deleteFromDir(s, 3) // must be a no-op, not a panic
	if len(s.extents) != 10 {
		t.Fatal("deletion removed objects from an all-stable tree")
	}
}

func TestGrowDirsAddsRequestedBytes(t *testing.T) {
	st := testState(5)
	st.InitLibrary(2, 16, 32<<10)
	// A stable directory last, so growth into a volatile one lands mid-stream.
	s := dirStream(st, 2, 4, 1.0)
	s.extents = append(s.extents, dirStream(st, 1, 4, 0).extents...)
	before := s.bytes()
	st.growDirs(s, 256<<10, 0.1, 0.3)
	if added := s.bytes() - before; added < 256<<10 {
		t.Fatalf("added %d bytes, want >= %d", added, 256<<10)
	}
	// Every directory's objects are still adjacent.
	seen := map[int]bool{}
	for i, e := range s.extents {
		if i > 0 && s.extents[i-1].dir == e.dir {
			continue
		}
		if seen[e.dir] {
			t.Fatalf("directory %d split in the stream", e.dir)
		}
		seen[e.dir] = true
	}
}

func TestGrowDirsCreatesDirWhenNoneVolatile(t *testing.T) {
	st := testState(6)
	s := dirStream(st, 2, 4, 0) // all stable
	st.growDirs(s, 64<<10, 0, 0)
	if len(s.volatileDirs()) == 0 {
		t.Fatal("growth into an all-stable tree must create a volatile directory")
	}
	if last := s.extents[len(s.extents)-1]; last.vol == 0 {
		t.Fatal("the new directory is not at the end of the stream")
	}
}

func TestWeightedSampleNeverPicksStable(t *testing.T) {
	st := testState(7)
	s := &Stream{extents: []*Extent{{vol: 0}, {vol: 1.5}, {vol: 0}, {vol: 0.2}, {vol: 0}}}
	for trial := 0; trial < 200; trial++ {
		for _, idx := range st.weightedSample(s, 2) {
			if s.extents[idx].vol == 0 {
				t.Fatal("weightedSample picked a zero-weight object")
			}
		}
	}
	// Asking for more than available clamps.
	got := st.weightedSample(s, 10)
	if len(got) != 2 {
		t.Fatalf("sampled %d objects, want 2 (all volatile)", len(got))
	}
	if got[0] == got[1] {
		t.Fatal("weightedSample returned duplicates")
	}
}

func TestRelocatePreservesMultiset(t *testing.T) {
	st := testState(8)
	img := st.FreshExtent(1 << 20)
	orig := append([]trace.ChunkRef(nil), img.chunks...)
	relocateChunks(st, img, 0.2)
	if !sameMultiset(streamMultiset(&Stream{extents: []*Extent{{chunks: orig}}}), streamMultiset(&Stream{extents: []*Extent{img}})) {
		t.Fatal("relocate changed the chunk population")
	}
	var moved int
	for i := range orig {
		if img.chunks[i] != orig[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("relocate(0.2) moved nothing")
	}
}

func TestLibraryHotHeadSeparation(t *testing.T) {
	st := testState(9)
	st.InitLibrary(4, 64, 32<<10)
	for i, h := range st.lib.hot {
		if len(h.chunks) != 1 {
			t.Fatalf("hot extent %d has %d chunks, want 1", i, len(h.chunks))
		}
	}
	// Geometric rank separation: rank 0 picked about twice as often as 1.
	counts := make(map[fphash.Fingerprint]int)
	for i := 0; i < 20000; i++ {
		counts[st.pickHot().chunks[0].FP]++
	}
	c0 := counts[st.lib.hot[0].chunks[0].FP]
	c1 := counts[st.lib.hot[1].chunks[0].FP]
	if c0 < c1*3/2 {
		t.Fatalf("hot rank separation too weak: %d vs %d", c0, c1)
	}
}

func TestMinterNeverZeroNeverRepeats(t *testing.T) {
	for _, salt := range []uint64{0, rand.New(rand.NewSource(1)).Uint64()} {
		m := &minter{salt: salt}
		seen := make(map[fphash.Fingerprint]bool)
		for i := 0; i < 100000; i++ {
			fp := m.mint()
			if fp.IsZero() {
				t.Fatal("minted zero fingerprint")
			}
			if seen[fp] {
				t.Fatal("minted duplicate fingerprint")
			}
			seen[fp] = true
		}
	}
}

func TestRewriteRegionPreservesOutsideRegion(t *testing.T) {
	st := testState(10)
	e := &Extent{}
	for i := 0; i < 100; i++ {
		e.chunks = append(e.chunks, st.MintChunk())
	}
	orig := e.clone()
	st.rewriteRegion(e, 0.1, 0)
	origSet := make(map[fphash.Fingerprint]bool)
	for _, c := range orig.chunks {
		origSet[c.FP] = true
	}
	var survived int
	for _, c := range e.chunks {
		if origSet[c.FP] {
			survived++
		}
	}
	if survived < 80 {
		t.Fatalf("10%% rewrite destroyed %d/100 chunks", 100-survived)
	}
	if survived == len(orig.chunks) {
		t.Fatal("rewrite changed nothing")
	}
}
