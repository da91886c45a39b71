package attack

import "slices"

// This file is the frequency-analysis kernel shared by every attack:
// ranking and rank-matching, operating on flat value entries. Its
// comparator and tie orders decide every inferred pair, so the
// golden-equivalence suite's recorded outputs pin them.

// rankCompare orders entries by descending frequency. When posTies is
// set, ties break by first stream occurrence (neighbor-table analyses);
// otherwise by fingerprint (whole-stream analyses — arbitrary, as in the
// paper). Fingerprint order is the final key either way, so the order is
// total and the ranked result is independent of the input permutation.
func rankCompare(a, b freqEntry, posTies bool) int {
	if d := b.stat.count - a.stat.count; d != 0 {
		return int(d)
	}
	if posTies {
		if d := a.stat.first - b.stat.first; d != 0 {
			return int(d)
		}
	}
	au, bu := a.fp.Uint64(), b.fp.Uint64()
	switch {
	case au < bu:
		return -1
	case au > bu:
		return 1
	}
	return 0
}

// rankIndexThreshold is the table size above which rank sorts an index
// array instead of the entries themselves: past a couple thousand entries
// the sort's data movement (24-byte elements) costs more than the final
// permutation pass, while tiny neighbor rows sort faster in place.
const rankIndexThreshold = 2048

// rank sorts entries into matching order in place and returns the slice.
func rank(entries []freqEntry, posTies bool) []freqEntry {
	if len(entries) >= rankIndexThreshold {
		order := make([]int32, len(entries))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(i, j int32) int { return rankCompare(entries[i], entries[j], posTies) })
		out := make([]freqEntry, len(entries))
		for k, i := range order {
			out[k] = entries[i]
		}
		copy(entries, out)
		return entries
	}
	if posTies {
		slices.SortFunc(entries, func(a, b freqEntry) int { return rankCompare(a, b, true) })
	} else {
		slices.SortFunc(entries, func(a, b freqEntry) int { return rankCompare(a, b, false) })
	}
	return entries
}

// freqAnalysis pairs the i-th most frequent ciphertext entry with the
// i-th most frequent plaintext entry, returning at most x pairs (x <= 0
// means unbounded) — the FREQ-ANALYSIS function of Algorithms 1 and 2.
// The entry slices are sorted in place.
func freqAnalysis(ec, em []freqEntry, x int, sizeAware, posTies bool) []Pair {
	if sizeAware {
		return freqAnalysisBySize(ec, em, x, posTies)
	}
	rc := rank(ec, posTies)
	rm := rank(em, posTies)
	n := len(rc)
	if len(rm) < n {
		n = len(rm)
	}
	if x > 0 && x < n {
		n = x
	}
	if n == 0 {
		return nil
	}
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = Pair{C: rc[i].fp, M: rm[i].fp}
	}
	return pairs
}

// blocks returns the chunk size in 16-byte cipher blocks, ceil(size/16)
// (Algorithm 3's CLASSIFY step).
func blocks(size uint32) uint32 {
	return (size + 15) / 16
}

// freqAnalysisBySize is the advanced attack's frequency analysis
// (Algorithm 3): entries are classified by size in cipher blocks and rank
// matching happens within each size class, up to x pairs per class.
func freqAnalysisBySize(ec, em []freqEntry, x int, posTies bool) []Pair {
	classify := func(entries []freqEntry) map[uint32][]freqEntry {
		by := make(map[uint32][]freqEntry)
		for _, e := range entries {
			cls := blocks(e.size)
			by[cls] = append(by[cls], e)
		}
		for cls, list := range by {
			by[cls] = rank(list, posTies)
		}
		return by
	}
	bc := classify(ec)
	bm := classify(em)

	classes := make([]uint32, 0, len(bc))
	for s := range bc {
		if _, ok := bm[s]; ok {
			classes = append(classes, s)
		}
	}
	slices.Sort(classes)

	var pairs []Pair
	for _, s := range classes {
		rc, rm := bc[s], bm[s]
		n := len(rc)
		if len(rm) < n {
			n = len(rm)
		}
		if x > 0 && x < n {
			n = x
		}
		for i := 0; i < n; i++ {
			pairs = append(pairs, Pair{C: rc[i].fp, M: rm[i].fp})
		}
	}
	return pairs
}
