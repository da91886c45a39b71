// Package trace models backup workloads as the attacks see them: sequences
// of chunk fingerprints (with sizes) in logical order, before deduplication
// (Section 4: C and M are logical-order chunk sequences). A Dataset is a
// series of such backups; its Stats and FrequencyCDF give the
// deduplication and frequency figures (Figure 1), and ChunkSizeModel is
// the chunk-size distribution generated workloads draw from. The
// datasets themselves, the paper's FSL, synthetic and VM ones included,
// are generated by internal/workload.
package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"freqdedup/internal/fphash"
)

// ChunkRef is one chunk occurrence in a backup stream: its content
// fingerprint and its (plaintext) size in bytes. Identical content repeats
// with the same fingerprint and size.
type ChunkRef struct {
	FP   fphash.Fingerprint
	Size uint32
}

// Backup is one full backup: the chunk sequence in logical order, as
// perceived by an adversary tapping uploads before deduplication.
type Backup struct {
	// Label identifies the backup (e.g. "Jan 22" or "week-03").
	Label string
	// Chunks is the logical-order chunk stream. Duplicates repeat.
	Chunks []ChunkRef
}

// LogicalSize returns the pre-deduplication byte size of the backup.
func (b *Backup) LogicalSize() uint64 {
	var n uint64
	for _, c := range b.Chunks {
		n += uint64(c.Size)
	}
	return n
}

// UniqueCount returns the number of distinct fingerprints in the backup.
func (b *Backup) UniqueCount() int {
	seen := make(map[fphash.Fingerprint]struct{}, len(b.Chunks))
	for _, c := range b.Chunks {
		seen[c.FP] = struct{}{}
	}
	return len(seen)
}

// Frequencies returns the per-fingerprint occurrence counts within the
// backup (the associative array F of Algorithm 1).
func (b *Backup) Frequencies() map[fphash.Fingerprint]int {
	freq := make(map[fphash.Fingerprint]int, len(b.Chunks))
	for _, c := range b.Chunks {
		freq[c.FP]++
	}
	return freq
}

// Dataset is a series of full backups of the same primary data over time.
type Dataset struct {
	Name    string
	Backups []*Backup
}

// DedupStats summarizes deduplication effectiveness across the whole
// dataset when backups are stored in order.
type DedupStats struct {
	LogicalBytes  uint64
	PhysicalBytes uint64
	LogicalChunks int
	UniqueChunks  int

	// Fingerprint-index lookup-path counters, cumulative since the
	// store's open; the trace-level simulation leaves them zero. They
	// decompose where index lookups were answered: IndexBloomNegative
	// counts memtable misses that every run's own Bloom filter (or fence
	// range) ruled out, so no run block was read; a memtable or
	// block-cache hit touches no disk; only DiskProbes paid a run-file
	// block read.
	IndexBloomNegative  uint64
	IndexMemtableHits   uint64
	IndexBlockCacheHits uint64
	IndexDiskProbes     uint64
}

// Ratio returns the deduplication ratio (logical/physical bytes).
func (s DedupStats) Ratio() float64 {
	if s.PhysicalBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// Saving returns the storage saving fraction 1 - physical/logical.
func (s DedupStats) Saving() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(s.PhysicalBytes)/float64(s.LogicalBytes)
}

// Stats computes chunk-level deduplication statistics over all backups.
func (d *Dataset) Stats() DedupStats {
	var st DedupStats
	seen := make(map[fphash.Fingerprint]struct{})
	for _, b := range d.Backups {
		for _, c := range b.Chunks {
			st.LogicalChunks++
			st.LogicalBytes += uint64(c.Size)
			if _, ok := seen[c.FP]; !ok {
				seen[c.FP] = struct{}{}
				st.UniqueChunks++
				st.PhysicalBytes += uint64(c.Size)
			}
		}
	}
	return st
}

// FrequencyCDF returns the sorted per-chunk duplicate frequencies of the
// union of all backups, for reproducing Figure 1: the i-th element is the
// frequency of the chunk at CDF position (i+1)/len.
func (d *Dataset) FrequencyCDF() []int {
	freq := make(map[fphash.Fingerprint]int)
	for _, b := range d.Backups {
		for _, c := range b.Chunks {
			freq[c.FP]++
		}
	}
	out := make([]int, 0, len(freq))
	for _, n := range freq {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Validate performs basic sanity checks on a dataset.
func (d *Dataset) Validate() error {
	if len(d.Backups) == 0 {
		return fmt.Errorf("trace: dataset %q has no backups", d.Name)
	}
	for i, b := range d.Backups {
		if len(b.Chunks) == 0 {
			return fmt.Errorf("trace: dataset %q backup %d (%s) is empty", d.Name, i, b.Label)
		}
		for j, c := range b.Chunks {
			if c.Size == 0 {
				return fmt.Errorf("trace: dataset %q backup %s chunk %d has zero size", d.Name, b.Label, j)
			}
			if c.FP.IsZero() {
				return fmt.Errorf("trace: dataset %q backup %s chunk %d has zero fingerprint", d.Name, b.Label, j)
			}
		}
	}
	return nil
}

// ChunkSizeModel draws chunk sizes resembling content-defined chunking: a
// shifted exponential with mean Avg clamped to [Min, Max]. Fixed-size
// chunking is the degenerate Min == Avg == Max case. When Quantum is
// positive, sizes are rounded to its multiples, modelling the coarse
// effective size resolution a large trace exhibits relative to its chunk
// population (the advanced attack classifies by size; at laptop scale an
// unquantized continuous distribution would make size classes unrealistically
// discriminative compared to the paper's 30M-chunk traces).
type ChunkSizeModel struct {
	Min, Avg, Max int
	Quantum       int
}

// Draw samples one chunk size from the model.
func (m ChunkSizeModel) Draw(rng *rand.Rand) uint32 {
	if m.Min == m.Max {
		return uint32(m.Min)
	}
	mean := float64(m.Avg - m.Min)
	s := m.Min + int(rng.ExpFloat64()*mean)
	if m.Quantum > 1 {
		s = (s + m.Quantum/2) / m.Quantum * m.Quantum
	}
	if s > m.Max {
		s = m.Max
	}
	if s < m.Min {
		s = m.Min
	}
	return uint32(s)
}
