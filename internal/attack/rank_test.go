package attack

import (
	"testing"

	"freqdedup/internal/fphash"
)

func TestBlocksClassification(t *testing.T) {
	cases := []struct {
		size uint32
		want uint32
	}{{1, 1}, {16, 1}, {17, 2}, {4096, 256}, {4097, 257}}
	for _, c := range cases {
		if got := blocks(c.size); got != c.want {
			t.Errorf("blocks(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// TestRankLargeTableInPlace: above rankIndexThreshold rank switches to an
// index-based sort; both paths must leave the input slice ranked and return
// it (the advanced attack's size classifier, among others, relies on the
// in-place contract).
func TestRankLargeTableInPlace(t *testing.T) {
	n := rankIndexThreshold + 7
	entries := make([]freqEntry, n)
	for i := range entries {
		entries[i] = freqEntry{
			fp:   fp(uint64(i + 1)),
			stat: stat{count: int32(i + 1), first: int32(i)},
			size: 4096,
		}
	}
	ranked := rank(entries, false)
	for i := 1; i < n; i++ {
		if entries[i-1].stat.count < entries[i].stat.count {
			t.Fatalf("input slice not ranked in place at %d: count %d before %d",
				i, entries[i-1].stat.count, entries[i].stat.count)
		}
	}
	if len(ranked) != n {
		t.Fatalf("returned slice has %d entries, want %d", len(ranked), n)
	}
	for i := range ranked {
		if ranked[i] != entries[i] {
			t.Fatalf("returned slice diverges from ranked input at %d", i)
		}
	}
}

// TestFreqAnalysisBySizeLargeClass: a size class holding more unique chunks
// than rankIndexThreshold must still be matched in frequency order, not
// first-occurrence order — the whole-stream analysis of any fixed-size
// trace is one giant size class on rank's index-sort path.
func TestFreqAnalysisBySizeLargeClass(t *testing.T) {
	n := rankIndexThreshold + 100
	ec := make([]freqEntry, 0, n)
	em := make([]freqEntry, 0, n)
	for i := 0; i < n; i++ {
		// Ciphertext entries arrive in ascending frequency, plaintext in
		// descending; only genuinely ranked matching pairs equal counts.
		ec = append(ec, freqEntry{
			fp:   fp(uint64(i + 1)),
			stat: stat{count: int32(i + 1), first: int32(i)},
			size: 4096,
		})
		em = append(em, freqEntry{
			fp:   fp(uint64(1_000_000 + i)),
			stat: stat{count: int32(n - i), first: int32(i)},
			size: 4096,
		})
	}
	countOf := make(map[fphash.Fingerprint]int32, 2*n)
	for _, e := range ec {
		countOf[e.fp] = e.stat.count
	}
	for _, e := range em {
		countOf[e.fp] = e.stat.count
	}
	pairs := freqAnalysisBySize(ec, em, 0, false)
	if len(pairs) != n {
		t.Fatalf("got %d pairs, want %d", len(pairs), n)
	}
	for _, p := range pairs {
		if countOf[p.C] != countOf[p.M] {
			t.Fatalf("pair (%v, %v) matches count %d with count %d; size class not rank-matched",
				p.C, p.M, countOf[p.C], countOf[p.M])
		}
	}
}
