// Package rabin implements 64-bit Rabin fingerprinting over a sliding
// window of bytes, the rolling hash the paper's content-defined chunking
// builds on (Section 2.1, citing Rabin [54]).
//
// A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
// reduces it modulo a fixed irreducible polynomial P of degree 64. The
// fingerprint of a sliding window can be updated in O(1) per byte: append a
// byte with a shift-and-reduce step, and cancel the byte leaving the window
// with a precomputed "pop" table.
package rabin

import (
	"slices"
	"sync"
)

// Poly is an irreducible polynomial of degree 64 over GF(2), represented by
// its low 64 coefficient bits (the x^64 term is implicit). This particular
// polynomial is irreducible; any irreducible polynomial of degree 64 yields
// a well-distributed fingerprint.
const Poly uint64 = 0xbfe6b8a5bf378d83

// DefaultWindow is the sliding window size in bytes used by the chunker.
// 48 bytes is the common choice in deduplication systems (LBFS lineage).
const DefaultWindow = 48

// tables precomputed for one (Poly, window) combination.
type tables struct {
	// mod[b] is the reduction of polynomial b(x)*x^64 modulo P, used when
	// shifting a new byte in: fp' = ((fp << 8) | in) reduced via mod[fp>>56].
	mod [256]uint64
	// pop[b] is the reduction of b(x)*x^(8*window) modulo P: the
	// contribution byte b would make after a shift that pushes it out of
	// the window, i.e. the value to XOR out as b leaves.
	pop [256]uint64
}

// fingerprint shifts every byte of p into an all-zero state with no byte
// leaving: the fingerprint of p as one whole window.
func (t *tables) fingerprint(p []byte) uint64 {
	var fp uint64
	for _, b := range p {
		fp = fp<<8 ^ uint64(b) ^ t.mod[fp>>56]
	}
	return fp
}

var shared = newTables(DefaultWindow)

// tableCache memoizes newTables per window size: the mod half is
// window-independent and the pop half costs 256*(window-1) reduction steps,
// so recomputing it on every New with a non-default window is pure waste.
// Tables are immutable after construction, so sharing them is safe.
var tableCache sync.Map // int -> *tables

// tablesFor returns the (possibly cached) tables for a window size.
func tablesFor(window int) *tables {
	if window == DefaultWindow {
		return shared
	}
	if t, ok := tableCache.Load(window); ok {
		return t.(*tables)
	}
	t, _ := tableCache.LoadOrStore(window, newTables(window))
	return t.(*tables)
}

func newTables(window int) *tables {
	t := &tables{}
	// mod table: for each leading byte value b, compute (b(x) * x^64) mod P.
	for b := 0; b < 256; b++ {
		v := uint64(b)
		// v currently holds the byte's polynomial; multiply by x^64 one bit
		// at a time, reducing on overflow of the implicit x^64 term.
		for i := 0; i < 64; i++ {
			carry := v >> 63
			v <<= 1
			if carry != 0 {
				v ^= Poly
			}
		}
		t.mod[b] = v
	}
	// pop table: the contribution of a byte that entered the window
	// window rolls ago, i.e. b(x) * x^(8*window) mod P. Shifting by one byte
	// is multiplication by x^8, which is linear over GF(2), so XORing the
	// departing byte out after the shift equals XORing b(x)*x^(8*(window-1))
	// out before it — and keeps the pop lookup off the chain from one
	// byte's fingerprint to the next.
	for b := 0; b < 256; b++ {
		v := uint64(b)
		for i := 0; i < window; i++ {
			v = (v << 8) ^ t.mod[v>>56]
		}
		t.pop[b] = v
	}
	return t
}

// Hash maintains a rolling Rabin fingerprint over a fixed-size window.
// The zero value is not usable; create one with New.
type Hash struct {
	tab    *tables
	window int
	buf    []byte // circular buffer of the last `window` bytes
	pos    int
	fp     uint64
}

// New returns a rolling hash with the given window size. New panics if
// window is not positive.
func New(window int) *Hash {
	if window <= 0 {
		panic("rabin: window must be positive")
	}
	h := &Hash{tab: tablesFor(window), window: window, buf: make([]byte, window)}
	return h
}

// Reset restores the hash to its initial (empty-window) state.
func (h *Hash) Reset() {
	for i := range h.buf {
		h.buf[i] = 0
	}
	h.pos = 0
	h.fp = 0
}

// Roll slides the window forward by one byte and returns the updated
// fingerprint.
func (h *Hash) Roll(b byte) uint64 {
	out := h.buf[h.pos]
	h.buf[h.pos] = b
	h.pos++
	if h.pos == h.window {
		h.pos = 0
	}
	h.fp = h.fp<<8 ^ uint64(b) ^ h.tab.pop[out] ^ h.tab.mod[h.fp>>56]
	return h.fp
}

// Update rolls the window forward over every byte of p in one call and
// returns the final fingerprint. It is equivalent to calling Roll for each
// byte but keeps the fingerprint, window position, and table pointers in
// locals for the whole call.
func (h *Hash) Update(p []byte) uint64 {
	fp, pos := h.fp, h.pos
	buf := h.buf
	window := h.window
	mod, pop := &h.tab.mod, &h.tab.pop
	for _, b := range p {
		out := buf[pos]
		buf[pos] = b
		pos++
		if pos == window {
			pos = 0
		}
		fp = fp<<8 ^ uint64(b) ^ pop[out] ^ mod[fp>>56]
	}
	h.fp, h.pos = fp, pos
	return fp
}

// minLane is the fewest positions Matches gives each of its four lanes;
// shorter ranges run in one lane, where priming three more lanes would cost
// more than their overlap saves.
const minLane = 64

// splitAt returns the fewest positions a Matches range must span to be
// split across four lanes: every lane gets at least minLane positions and
// at least one window, the bytes it primes on.
func splitAt(window int) int {
	return 4 * max(minLane, window)
}

// Matches appends to out every position p in [from, len(data)], in
// ascending order, at which the fingerprint of the window ending there,
// data[p-window:p], satisfies fp&mask == magic, and returns the extended
// slice. from must be at least the window size.
//
// A position's fingerprint is a pure function of the window ending there,
// so the range splits into four quarters scanned by four independent
// rolling states. A single rolling state is bound by latency — each byte's
// reduction lookup waits on the previous byte's result — and four
// interleaved ones overlap those waits. Matches uses only h's tables,
// never its rolling state, which it leaves untouched.
func (h *Hash) Matches(data []byte, from int, mask, magic uint64, out []int) []int {
	w := h.window
	if from < w {
		panic("rabin: Matches needs from >= window")
	}
	n := len(data) + 1 - from // positions from..len(data)
	if n <= 0 {
		return out
	}
	if n < splitAt(w) {
		fp := h.tab.fingerprint(data[from-w : from])
		if fp&mask == magic {
			out = append(out, from)
		}
		return h.roll(data, from, fp, mask, magic, out)
	}

	// Lane k starts at position from+k*q and rolls q-1 steps in roll4;
	// lane 3 then rolls on through the n-4q positions left over. After step
	// i, lane k's window ends at position start[k]+i+1: win[k][i] is the
	// byte leaving it and win[k][i+w] the one entering. Hits are appended
	// as the lanes find them, four sorted runs interleaved, and sorted once
	// at the end, so Matches needs no per-lane buffers.
	q := n / 4
	var (
		start [4]int
		win   [4][]byte
		fp    [4]uint64
	)
	first := len(out)
	for k := range start {
		a := from + k*q
		start[k] = a
		win[k] = data[a-w : a-1+q]
		fp[k] = h.tab.fingerprint(data[a-w : a])
		if fp[k]&mask == magic {
			out = append(out, a)
		}
	}
	for i := 0; ; i++ {
		if i = h.tab.roll4(&win, w, &fp, i, mask, magic); i == q-1 {
			break
		}
		for k := range fp {
			if fp[k]&mask == magic {
				out = append(out, start[k]+i+1)
			}
		}
	}
	out = h.roll(data, start[3]+q-1, fp[3], mask, magic, out)
	slices.Sort(out[first:])
	return out
}

// roll4 advances the four lanes' fingerprints from step i until a step
// after which some lane matches, returning that step, or the step count
// len(win[0])-w when none does. Nothing in its loop calls, so the four
// states keep to registers.
func (t *tables) roll4(win *[4][]byte, w int, fp *[4]uint64, i int, mask, magic uint64) int {
	mod, pop := &t.mod, &t.pop
	w0, w1, w2, w3 := win[0], win[1], win[2], win[3]
	w1, w2, w3 = w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
	fp0, fp1, fp2, fp3 := fp[0], fp[1], fp[2], fp[3]
	for ; i+w < len(w0); i++ {
		j := i + w
		fp0 = fp0<<8 ^ uint64(w0[j]) ^ pop[w0[i]] ^ mod[fp0>>56]
		fp1 = fp1<<8 ^ uint64(w1[j]) ^ pop[w1[i]] ^ mod[fp1>>56]
		fp2 = fp2<<8 ^ uint64(w2[j]) ^ pop[w2[i]] ^ mod[fp2>>56]
		fp3 = fp3<<8 ^ uint64(w3[j]) ^ pop[w3[i]] ^ mod[fp3>>56]
		if fp0&mask == magic || fp1&mask == magic || fp2&mask == magic || fp3&mask == magic {
			break
		}
	}
	*fp = [4]uint64{fp0, fp1, fp2, fp3}
	return i
}

// roll advances fp, the fingerprint of the window ending at position a,
// through positions a+1..len(data), appending each match to out.
func (h *Hash) roll(data []byte, a int, fp, mask, magic uint64, out []int) []int {
	mod, pop := &h.tab.mod, &h.tab.pop
	in := data[a:]
	lag := data[a-h.window:]
	lag = lag[:len(in)]
	for i := range in {
		fp = fp<<8 ^ uint64(in[i]) ^ pop[lag[i]] ^ mod[fp>>56]
		if fp&mask == magic {
			out = append(out, a+i+1)
		}
	}
	return out
}

// Sum64 returns the current fingerprint of the window contents.
func (h *Hash) Sum64() uint64 { return h.fp }

// Window returns the configured window size in bytes.
func (h *Hash) Window() int { return h.window }

// Fingerprint computes the Rabin fingerprint of data in one shot, as if the
// window covered the entire input. It is primarily a reference for testing
// the rolling update.
func Fingerprint(data []byte) uint64 {
	return shared.fingerprint(data)
}
