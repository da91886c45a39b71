package rabin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRollMatchesDirect verifies the O(1) rolling update against the
// one-shot reference: after rolling a long input through a window of size w,
// the fingerprint must equal the direct fingerprint of the last w bytes.
func TestRollMatchesDirect(t *testing.T) {
	for _, window := range []int{1, 2, 16, DefaultWindow, 64} {
		h := New(window)
		rng := rand.New(rand.NewSource(42))
		data := make([]byte, window*5+3)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		var got uint64
		for _, b := range data {
			got = h.Roll(b)
		}
		want := Fingerprint(data[len(data)-window:])
		if got != want {
			t.Errorf("window=%d: rolling fp %#x, direct fp %#x", window, got, want)
		}
	}
}

// TestRollPositionIndependent checks the defining property of a rolling
// hash: the fingerprint depends only on the window contents, not on what
// preceded the window.
func TestRollPositionIndependent(t *testing.T) {
	f := func(prefixSeed int64, windowSeed int64) bool {
		const window = DefaultWindow
		rngW := rand.New(rand.NewSource(windowSeed))
		win := make([]byte, window)
		for i := range win {
			win[i] = byte(rngW.Intn(256))
		}

		roll := func(prefix []byte) uint64 {
			h := New(window)
			var fp uint64
			for _, b := range prefix {
				fp = h.Roll(b)
			}
			for _, b := range win {
				fp = h.Roll(b)
			}
			return fp
		}

		rngP := rand.New(rand.NewSource(prefixSeed))
		prefix := make([]byte, 1+rngP.Intn(200))
		for i := range prefix {
			prefix[i] = byte(rngP.Intn(256))
		}
		return roll(nil) == roll(prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	h := New(DefaultWindow)
	data := []byte("some bytes to pollute the window state")
	for _, b := range data {
		h.Roll(b)
	}
	h.Reset()
	if h.Sum64() != 0 {
		t.Fatalf("Sum64 after Reset = %#x, want 0", h.Sum64())
	}
	var a uint64
	for _, b := range data {
		a = h.Roll(b)
	}
	h2 := New(DefaultWindow)
	var want uint64
	for _, b := range data {
		want = h2.Roll(b)
	}
	if a != want {
		t.Fatalf("after Reset, rolling diverges: %#x vs %#x", a, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Fingerprint([]byte("the quick brown fox"))
	b := Fingerprint([]byte("the quick brown foy"))
	if a == b {
		t.Fatal("single-byte change did not alter fingerprint")
	}
}

func TestFingerprintEmptyAndZeroBytes(t *testing.T) {
	if Fingerprint(nil) != 0 {
		t.Fatal("fingerprint of empty input should be 0")
	}
	// Leading zero bytes are absorbed (polynomial has zero coefficients);
	// this is inherent to Rabin fingerprints and fine for chunking since the
	// window has fixed size.
	if Fingerprint([]byte{0, 0, 0}) != 0 {
		t.Fatal("fingerprint of zero bytes should be 0")
	}
}

func TestNewPanicsOnBadWindow(t *testing.T) {
	for _, w := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestWindowAccessor(t *testing.T) {
	if got := New(17).Window(); got != 17 {
		t.Fatalf("Window() = %d, want 17", got)
	}
}

// TestDistribution sanity-checks that fingerprints of random windows spread
// across the 64-bit space (each of the top 8 bits roughly balanced).
func TestDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New(DefaultWindow)
	const samples = 8192
	var bitOnes [8]int
	for i := 0; i < samples; i++ {
		fp := h.Roll(byte(rng.Intn(256)))
		for bit := 0; bit < 8; bit++ {
			if fp>>(63-uint(bit))&1 == 1 {
				bitOnes[bit]++
			}
		}
	}
	for bit, ones := range bitOnes {
		if ones < samples/3 || ones > 2*samples/3 {
			t.Errorf("top bit %d skewed: %d/%d", bit, ones, samples)
		}
	}
}

// TestUpdateMatchesRoll: the bulk update must leave the hash in exactly the
// state a byte-at-a-time Roll loop would, from any starting state.
func TestUpdateMatchesRoll(t *testing.T) {
	for _, window := range []int{1, 7, DefaultWindow, 64} {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{0, 1, window - 1, window, window + 1, 5*window + 3} {
			if n < 0 {
				continue
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			hr, hu := New(window), New(window)
			// Pollute both with a shared prefix so Update starts mid-state.
			prefix := []byte("prefix state pollution")
			var want uint64
			for _, b := range prefix {
				want = hr.Roll(b)
			}
			hu.Update(prefix)
			for _, b := range data {
				want = hr.Roll(b)
			}
			got := hu.Update(data)
			if n+len(prefix) > 0 && got != want {
				t.Fatalf("window=%d n=%d: Update fp %#x, Roll fp %#x", window, n, got, want)
			}
			if hr.Sum64() != hu.Sum64() {
				t.Fatalf("window=%d n=%d: states diverge", window, n)
			}
		}
	}
}

// TestMatchesAgreesWithRoll: Matches reports a position if and only if a
// byte-at-a-time Roll loop's fingerprint there matches, for range lengths
// from empty to past the lane-split threshold, several starting offsets
// and every mask width the chunker can use.
func TestMatchesAgreesWithRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, window := range []int{1, 8, 16, DefaultWindow, 64} {
		froms := []int{window, window + 1, window + rng.Intn(200)}
		split := splitAt(window)
		data := make([]byte, froms[2]+split+4096)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		// fps[p] is the Roll fingerprint after data[p-1], i.e. of the window
		// ending at position p.
		fps := make([]uint64, len(data)+1)
		hr := New(window)
		for i, b := range data {
			fps[i+1] = hr.Roll(b)
		}
		h := New(window)
		h.Update([]byte("rolling state Matches must not touch"))
		state := h.Sum64()
		prefix := []int{-1, -2}
		for _, from := range froms {
			lengths := []int{from + split + 1000, len(data)}
			for n := 0; n <= split+8; n++ {
				lengths = append(lengths, from-1+n) // n positions in range
			}
			for _, end := range lengths {
				for k := 0; k <= 13; k++ {
					mask := uint64(1)<<k - 1
					got := h.Matches(data[:end], from, mask, mask, append([]int(nil), prefix...))
					var want []int
					for p := from; p <= end; p++ {
						if fps[p]&mask == mask {
							want = append(want, p)
						}
					}
					if len(got) != len(prefix)+len(want) || got[0] != prefix[0] || got[1] != prefix[1] {
						t.Fatalf("window=%d from=%d end=%d k=%d: %d matches, Roll has %d (or prefix lost)",
							window, from, end, k, len(got)-len(prefix), len(want))
					}
					for i, p := range want {
						if got[len(prefix)+i] != p {
							t.Fatalf("window=%d from=%d end=%d k=%d: match %d at %d, Roll at %d",
								window, from, end, k, i, got[len(prefix)+i], p)
						}
					}
				}
				// A magic outside the mask never matches.
				if got := h.Matches(data[:end], from, 0xFFF, 0x1FFF, nil); len(got) != 0 {
					t.Fatalf("window=%d from=%d end=%d: impossible magic matched %v", window, from, end, got)
				}
			}
		}
		if h.Sum64() != state {
			t.Fatalf("window=%d: Matches moved the rolling state", window)
		}
	}
}

func TestMatchesPanicsOnShortPrefix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Matches with from < window did not panic")
		}
	}()
	New(DefaultWindow).Matches(make([]byte, 100), 10, 1, 1, nil)
}

// TestTablesCached: non-default windows reuse cached tables across New
// calls (pointer identity) and still produce correct fingerprints.
func TestTablesCached(t *testing.T) {
	a, b := New(17), New(17)
	if a.tab != b.tab {
		t.Fatal("tables for window 17 not shared between New calls")
	}
	if a.tab == shared {
		t.Fatal("non-default window must not reuse the default-window tables")
	}
	data := []byte("cache correctness check over a modest input string")
	var got uint64
	for _, c := range data {
		got = a.Roll(c)
	}
	want := Fingerprint(data[len(data)-17:])
	if got != want {
		t.Fatalf("cached-table roll fp %#x, direct fp %#x", got, want)
	}
}

func BenchmarkRabinRoll(b *testing.B) {
	h := New(DefaultWindow)
	b.SetBytes(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Roll(byte(i))
	}
}

func BenchmarkRabinUpdate(b *testing.B) {
	h := New(DefaultWindow)
	data := make([]byte, 64*1024)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Update(data)
	}
}

// BenchmarkRabinMatches is the content-defined chunker's kernel: every
// candidate cut in a 64 KiB buffer at the default 8 KiB average.
func BenchmarkRabinMatches(b *testing.B) {
	h := New(DefaultWindow)
	data := make([]byte, 64*1024)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	var out []int
	b.SetBytes(int64(len(data) - DefaultWindow))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = h.Matches(data, DefaultWindow, 0x1FFF, 0x1FFF, out[:0])
	}
}
