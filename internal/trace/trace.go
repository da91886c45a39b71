// Package trace models backup workloads as the attacks see them: sequences
// of chunk fingerprints (with sizes) in logical order, before deduplication
// (Section 4: C and M are logical-order chunk sequences).
//
// It also provides the three dataset generators used in the evaluation
// (Section 5.1). The paper's FSL and VM traces are not publicly
// redistributable at full fidelity, so the generators synthesize workloads
// that preserve the statistics the attacks and defenses depend on — skewed
// chunk frequency (Figure 1), chunk locality across backup versions, and
// clustered updates — at laptop scale. The synthetic dataset generator
// implements the paper's own published method (Lillibridge et al.:
// per-version modify 2% of files, 2.5% of their content, plus new data).
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

// mix64 is the splitmix64 finalizer; generators use it to mint fingerprints
// that are uniformly distributed (as content hashes would be) from counters.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// minter mints fresh, never-repeating fingerprints for synthetic chunks.
type minter struct {
	next uint64
}

func (m *minter) mint() fphash.Fingerprint {
	m.next++
	fp := fphash.FromUint64(mix64(m.next))
	if fp.IsZero() {
		m.next++
		fp = fphash.FromUint64(mix64(m.next))
	}
	return fp
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

// Draw samples one chunk size from the model. The workload generator
// registry (internal/workload) shares the model with this package's
// generators, so their size distributions stay comparable.
func (m ChunkSizeModel) Draw(rng *rand.Rand) uint32 { return m.draw(rng) }

// draw samples one chunk size.
func (m ChunkSizeModel) draw(rng *rand.Rand) uint32 {
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

// fileLibrary models how duplication actually arises in storage workloads:
// whole files (package payloads, media, shared documents, OS pages) are
// copied — within a user's tree, across users, and across backup versions.
// Copying entire files means duplication is sequence-preserving: a popular
// chunk recurs together with the same neighbors, so its neighbor tables
// contain few distinct, high-count entries. This is the structure that
// makes chunk locality exploitable (Section 4.2).
//
// The library has two tiers, mirroring the two features of Figure 1's
// frequency distribution:
//
//   - hot: a handful of tiny (1-3 chunk) files copied at geometrically
//     separated rates. These produce the extreme, well-separated head of
//     the distribution (the paper's "top-frequent chunks have
//     significantly higher frequencies ... their frequency ranks are
//     stable across different backups"), which is what makes the
//     ciphertext-only seed of the locality-based attack reliable.
//   - tail: many ordinary files copied uniformly, so most duplicated files
//     have a small number of copies. Small copy counts keep neighbor
//     tables small, which is what lets inference propagate across file
//     boundaries.
type fileLibrary struct {
	hot  []*genFile
	tail []*genFile
}

// newFileLibrary pre-generates the library: nHot hot files and nTail tail
// files with mean size meanBytes.
func newFileLibrary(rng *rand.Rand, mint *minter, nHot, nTail, meanBytes int, sizes ChunkSizeModel) *fileLibrary {
	l := &fileLibrary{
		hot:  make([]*genFile, nHot),
		tail: make([]*genFile, nTail),
	}
	for i := range l.hot {
		// Hot files are a single chunk each, so the frequency head consists
		// of well-separated singleton ranks: no in-file peers to tie with,
		// and the geometric copy-rate separation (pickHot) keeps ranks
		// stable across backups even as copies are added and modified.
		l.hot[i] = &genFile{chunks: []ChunkRef{{FP: mint.mint(), Size: sizes.draw(rng)}}}
	}
	for i := range l.tail {
		l.tail[i] = freshFile(rng, mint, fileSize(rng, meanBytes), sizes)
	}
	return l
}

// pickHot returns a copy of a hot file, rank h chosen geometrically so
// rank 0 is copied about twice as often as rank 1, and so on — giving the
// frequency head stable, well-separated ranks.
func (l *fileLibrary) pickHot(rng *rand.Rand) *genFile {
	h := 0
	for h < len(l.hot)-1 && rng.Float64() < 0.5 {
		h++
	}
	return l.hot[h].clone()
}

// pickTail returns a copy of a uniformly selected tail file. The copy
// shares chunk content (fingerprints) but is an independent file object,
// so later modifications to one copy do not affect the others.
func (l *fileLibrary) pickTail(rng *rand.Rand) *genFile {
	return l.tail[rng.Intn(len(l.tail))].clone()
}

// freshFile creates a file of approximately targetBytes from newly minted
// chunks.
func freshFile(rng *rand.Rand, mint *minter, targetBytes int, sizes ChunkSizeModel) *genFile {
	f := &genFile{}
	var got int
	for got < targetBytes {
		c := ChunkRef{FP: mint.mint(), Size: sizes.draw(rng)}
		f.chunks = append(f.chunks, c)
		got += int(c.Size)
	}
	return f
}

// genFile is one file in the simulated primary data: a chunk sequence plus
// a volatility weight governing how likely the file is to be modified,
// moved, or deleted between backups. Real file populations are strongly
// heterogeneous — most files are written once and never touched again,
// while a small working set churns constantly. This "stable backbone"
// is why inference against a months-old auxiliary backup still works in
// the paper (Figure 5's gentle decay): the backbone's chunk locality
// survives many backup generations.
type genFile struct {
	chunks []ChunkRef
	vol    float64
}

func (f *genFile) clone() *genFile {
	c := make([]ChunkRef, len(f.chunks))
	copy(c, f.chunks)
	return &genFile{chunks: c, vol: f.vol}
}

// genDir is a directory: a group of files that share churn behaviour.
// Volatility is assigned per directory because real churn clusters — logs,
// caches, and active projects live together, and cold archives live
// together. Clustered churn is what keeps most deduplication segments
// (package segment) stable across backups, which MinHash encryption's
// storage efficiency depends on (Section 6.1); at the same time, volatile
// directories are interleaved with stable ones throughout the stream, so
// global stream positions shift between backups and classical frequency
// analysis stays ineffective.
type genDir struct {
	files []*genFile
	vol   float64
}

func (d *genDir) clone() *genDir {
	out := &genDir{files: make([]*genFile, len(d.files)), vol: d.vol}
	for i, f := range d.files {
		out.files[i] = f.clone()
	}
	return out
}

// fileSystem is the simulated primary data source that gets backed up: an
// ordered list of directories, each an ordered list of files. Directory
// and file order are stable across backups except for explicit shuffling.
type fileSystem struct {
	dirs []*genDir
}

func (fs *fileSystem) clone() *fileSystem {
	out := &fileSystem{dirs: make([]*genDir, len(fs.dirs))}
	for i, d := range fs.dirs {
		out.dirs[i] = d.clone()
	}
	return out
}

// allFiles returns every file in stream order.
func (fs *fileSystem) allFiles() []*genFile {
	var out []*genFile
	for _, d := range fs.dirs {
		out = append(out, d.files...)
	}
	return out
}

// snapshot emits the full-backup chunk stream: directories in order, files
// in order within each directory.
func (fs *fileSystem) snapshot(label string) *Backup {
	var total int
	for _, d := range fs.dirs {
		for _, f := range d.files {
			total += len(f.chunks)
		}
	}
	b := &Backup{Label: label, Chunks: make([]ChunkRef, 0, total)}
	for _, d := range fs.dirs {
		for _, f := range d.files {
			b.Chunks = append(b.Chunks, f.chunks...)
		}
	}
	return b
}

// drawVolatility assigns a directory's churn propensity: stableFrac of
// directories are immutable (weight 0), the rest get an exponential weight
// (a small hot working set dominates churn).
func drawVolatility(rng *rand.Rand, stableFrac float64) float64 {
	if rng.Float64() < stableFrac {
		return 0
	}
	return rng.ExpFloat64() + 0.05
}

// weightedSample picks up to k distinct file indices (into the flattened
// stream-order file list) with probability proportional to volatility.
// Files with zero weight are never picked.
func weightedSample(rng *rand.Rand, files []*genFile, k int) []int {
	type cand struct {
		idx int
		w   float64
	}
	cands := make([]cand, 0, len(files))
	var total float64
	for i, f := range files {
		if f.vol > 0 {
			cands = append(cands, cand{idx: i, w: f.vol})
			total += f.vol
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, 0, k)
	for len(out) < k {
		r := rng.Float64() * total
		var acc float64
		pick := len(cands) - 1
		for i, c := range cands {
			acc += c.w
			if r < acc {
				pick = i
				break
			}
		}
		out = append(out, cands[pick].idx)
		total -= cands[pick].w
		cands[pick] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return out
}

// shuffleFiles relocates approximately frac of the volatile files to a
// random position within their own directory, modelling local
// reorganisation (renames and moves within a working directory). The
// stable backbone never moves.
func shuffleFiles(rng *rand.Rand, fs *fileSystem, frac float64) {
	for _, d := range fs.dirs {
		if d.vol == 0 || len(d.files) < 2 {
			continue
		}
		k := int(float64(len(d.files))*frac + 0.5)
		for i := 0; i < k; i++ {
			a, b := rng.Intn(len(d.files)), rng.Intn(len(d.files))
			f := d.files[a]
			d.files = append(d.files[:a], d.files[a+1:]...)
			if b > len(d.files) {
				b = len(d.files)
			}
			d.files = append(d.files, nil)
			copy(d.files[b+1:], d.files[b:])
			d.files[b] = f
		}
	}
}

// deleteFiles removes up to k files from the working set, concentrated in
// one highly volatile directory per call (deletions cluster the way real
// cleanups do).
func deleteFiles(rng *rand.Rand, fs *fileSystem, k int) {
	vol := volatileDirs(fs)
	if len(vol) == 0 || k <= 0 {
		return
	}
	var best *genDir
	for _, d := range vol {
		if best == nil || d.vol > best.vol {
			best = d
		}
	}
	d := best
	for i := 0; i < k && len(d.files) > 0; i++ {
		j := rng.Intn(len(d.files))
		d.files = append(d.files[:j], d.files[j+1:]...)
	}
}

func volatileDirs(fs *fileSystem) []*genDir {
	var out []*genDir
	for _, d := range fs.dirs {
		if d.vol > 0 && len(d.files) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// addFiles grows fs by approximately targetBytes, creating directories of
// roughly dirFiles files. Each added file is a hot library copy with
// probability hotFrac, a tail library copy with probability reuseFrac, or
// a fresh file otherwise. Directory volatility is drawn per directory
// (stableFrac immutable); files inherit their directory's volatility. It
// returns the number of bytes actually added.
func addFiles(rng *rand.Rand, mint *minter, lib *fileLibrary, fs *fileSystem, targetBytes, meanFileBytes, dirFiles int, sizes ChunkSizeModel, hotFrac, reuseFrac, stableFrac float64) int {
	var added int
	var dir *genDir
	var dirTarget int
	for added < targetBytes {
		if dir == nil || len(dir.files) >= dirTarget {
			dir = &genDir{vol: drawVolatility(rng, stableFrac)}
			dirTarget = 1 + dirFiles/2 + rng.Intn(dirFiles)
			fs.dirs = append(fs.dirs, dir)
		}
		var f *genFile
		switch r := rng.Float64(); {
		case lib != nil && r < hotFrac:
			f = lib.pickHot(rng)
		case lib != nil && r < hotFrac+reuseFrac:
			f = lib.pickTail(rng)
		default:
			f = freshFile(rng, mint, fileSize(rng, meanFileBytes), sizes)
		}
		f.vol = dir.vol
		dir.files = append(dir.files, f)
		for _, c := range f.chunks {
			added += int(c.Size)
		}
	}
	return added
}

// growVolatile adds approximately targetBytes of new files into the
// working set. Growth is concentrated: all new files land in one or two of
// the most active directories (plus occasionally a brand-new directory at
// the end of the stream), the way real new data accumulates in a handful
// of active projects. Concentration matters for the defense evaluation:
// scattered insertions would perturb segment boundaries all over the
// stream and re-key far more MinHash segments than real workloads do.
func growVolatile(rng *rand.Rand, mint *minter, lib *fileLibrary, fs *fileSystem, targetBytes, meanFileBytes int, sizes ChunkSizeModel, hotFrac, reuseFrac float64) int {
	targets := make([]*genDir, 0, 2)
	if vol := volatileDirs(fs); len(vol) > 0 {
		targets = append(targets, vol[rng.Intn(len(vol))])
		if len(vol) > 1 && rng.Float64() < 0.5 {
			targets = append(targets, vol[rng.Intn(len(vol))])
		}
	}
	if len(targets) == 0 || rng.Float64() < 0.25 {
		dir := &genDir{vol: rng.ExpFloat64() + 0.05}
		fs.dirs = append(fs.dirs, dir)
		targets = append(targets, dir)
	}
	var added int
	for added < targetBytes {
		dir := targets[rng.Intn(len(targets))]
		var f *genFile
		switch r := rng.Float64(); {
		case lib != nil && r < hotFrac:
			f = lib.pickHot(rng)
		case lib != nil && r < hotFrac+reuseFrac:
			f = lib.pickTail(rng)
		default:
			f = freshFile(rng, mint, fileSize(rng, meanFileBytes), sizes)
		}
		f.vol = dir.vol
		dir.files = append(dir.files, f)
		for _, c := range f.chunks {
			added += int(c.Size)
		}
	}
	return added
}

// modifyFile rewrites a contiguous region// modifyFile rewrites a contiguous region covering contentFrac of the
// file's chunks — the paper's "changes to backups often appear in few
// clustered regions of chunks". Rewritten chunks get fresh fingerprints;
// occasionally a chunk is inserted or dropped so that chunk counts drift
// like real content-defined chunking under edits.
func modifyFile(rng *rand.Rand, mint *minter, f *genFile, contentFrac float64, sizes ChunkSizeModel) {
	modifyRegion(rng, mint, f, contentFrac, sizes, 0)
}

// modifyRegion is modifyFile with an optional volatile zone: when zoneFrac
// is positive, the rewritten region starts within the first zoneFrac of the
// chunk sequence with high probability, concentrating churn in a hot
// region and leaving a stable backbone (how real disk images change:
// logs, caches, and working directories churn; OS payload does not).
func modifyRegion(rng *rand.Rand, mint *minter, f *genFile, contentFrac float64, sizes ChunkSizeModel, zoneFrac float64) {
	n := len(f.chunks)
	if n == 0 {
		return
	}
	run := int(float64(n)*contentFrac + 0.5)
	if run < 1 {
		run = 1
	}
	if run > n {
		run = n
	}
	limit := n - run + 1
	start := rng.Intn(limit)
	if zoneFrac > 0 && rng.Float64() < 0.85 {
		zone := int(float64(n) * zoneFrac)
		if zone < 1 {
			zone = 1
		}
		if zone > limit {
			zone = limit
		}
		start = rng.Intn(zone)
	}
	repl := make([]ChunkRef, 0, run+1)
	for i := 0; i < run; i++ {
		repl = append(repl, ChunkRef{FP: mint.mint(), Size: sizes.draw(rng)})
	}
	// Shift chunk count by -1/0/+1 to emulate boundary drift.
	switch rng.Intn(4) {
	case 0:
		repl = append(repl, ChunkRef{FP: mint.mint(), Size: sizes.draw(rng)})
	case 1:
		if len(repl) > 1 {
			repl = repl[:len(repl)-1]
		}
	}
	out := make([]ChunkRef, 0, n-run+len(repl))
	out = append(out, f.chunks[:start]...)
	out = append(out, repl...)
	out = append(out, f.chunks[start+run:]...)
	f.chunks = out
}
