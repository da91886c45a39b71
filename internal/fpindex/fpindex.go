package fpindex

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"freqdedup/internal/bloom"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/lru"
	"freqdedup/internal/vfs"
)

const (
	// runFilterFPP sizes each run's Bloom filter (~9.6 bits/fingerprint):
	// a negative proves the fingerprint is not in that run, so a lookup for
	// a certainly-new chunk reads no run block.
	runFilterFPP = 0.01

	// Option defaults.
	defaultMemtableEntries = 1 << 15
	defaultCacheBytes      = 8 << 20

	// fanout is how many runs accumulate on one level before they are
	// merged into one run on the next.
	fanout = 4
)

// Options configures an Index. Zero values select the defaults above.
type Options struct {
	// Shards is the number of index shards; it must match the dedup
	// store's shard count.
	Shards int
	// MemtableEntries is the per-shard flush threshold: once a memtable
	// holds this many postings NeedsFlush reports true.
	MemtableEntries int
	// CacheBytes bounds the shared hot-block LRU cache.
	CacheBytes int64
	// ForceRebuild distrusts all on-disk index state, as if every shard
	// carried a layout-change marker — used after container salvage,
	// which renumbers containers and invalidates run locations.
	ForceRebuild bool
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MemtableEntries <= 0 {
		o.MemtableEntries = defaultMemtableEntries
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = defaultCacheBytes
	}
}

// Counters are cumulative lookup-path statistics across all shards.
type Counters struct {
	// BloomNegative counts memtable misses that read no run block: every
	// run's filter (or fence range) ruled the fingerprint out — the
	// unique-chunk fast path.
	BloomNegative uint64
	// MemtableHits counts lookups answered by a shard's memtable.
	MemtableHits uint64
	// BlockCacheHits counts run-block reads served from the LRU cache.
	BlockCacheHits uint64
	// DiskProbes counts run-block reads that went to disk.
	DiskProbes uint64
}

// blockKey identifies one cached run block. Run sequence numbers are
// never reused within a process, so stale entries for deleted runs can
// only age out — they can never alias a live block.
type blockKey struct {
	shard int
	seq   uint64
	block int
}

// Index is a persistent, memory-bounded fingerprint index: per-shard
// memtables over immutable on-disk sorted runs, each fronted by its own
// Bloom filter, with a shared hot-block cache and tiered compaction run
// inline by the flush that fills a level. See doc.go for the on-disk
// format and crash-safety argument.
type Index struct {
	fsys   vfs.FS
	dir    string
	opts   Options
	shards []*Shard

	cacheMu sync.Mutex
	cache   *lru.Cache[blockKey, []byte]

	bloomNeg   atomic.Uint64
	memHits    atomic.Uint64
	cacheHits  atomic.Uint64
	diskProbes atomic.Uint64
}

// Shard is one index shard: a memtable of recent insertions over the
// on-disk runs (newest first).
type Shard struct {
	ix *Index
	id int

	mu   sync.RWMutex
	mem  map[fphash.Fingerprint]container.Location
	runs []*run // newest first; level is non-decreasing along the slice
	// watermark is how many sealed containers the runs fully cover;
	// containers at or past it must be rescanned into the memtable on
	// open.
	watermark int
	nextSeq   uint64
	// compactErr is the last failed merge, reported by Close.
	compactErr error
}

// Open loads index state for every shard, reading only manifests and
// run footers, fences and filters — O(metadata), no posting blocks. A shard
// whose marker is present or whose manifest or runs fail validation is
// reset to watermark 0 (full container rescan by the caller); corruption
// here never fails the open and never serves a wrong Location.
func Open(fsys vfs.FS, dir string, opts Options) (*Index, error) {
	opts.fill()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fpindex: create index dir: %w", err)
	}
	ix := &Index{
		fsys:   fsys,
		dir:    dir,
		opts:   opts,
		shards: make([]*Shard, opts.Shards),
		cache:  lru.New[blockKey, []byte](uint64(opts.CacheBytes), nil),
	}
	for i := range ix.shards {
		s, err := ix.openShard(i)
		if err != nil {
			for _, prev := range ix.shards[:i] {
				prev.closeRuns()
			}
			return nil, err
		}
		ix.shards[i] = s
	}
	return ix, nil
}

// openShard loads one shard, falling back to a clean rebuild state on a
// marker or any validation failure.
func (ix *Index) openShard(id int) (*Shard, error) {
	s := &Shard{ix: ix, id: id, mem: make(map[fphash.Fingerprint]container.Location), nextSeq: 1}
	rebuild := ix.opts.ForceRebuild || hasMarker(ix.fsys, ix.dir, id)
	var m *manifest
	if !rebuild {
		var err error
		m, err = readManifest(ix.fsys, ix.dir, id)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return nil, err
			}
			rebuild = true
		}
	}
	if m != nil && !rebuild {
		s.watermark, s.nextSeq = m.watermark, m.nextSeq
		s.runs = make([]*run, 0, len(m.runs))
		for _, ref := range m.runs {
			r, err := openRun(ix.fsys, ix.dir, id, ref.seq, ref.level, ref.count)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, bloom.ErrCodec) {
					s.closeRuns()
					return nil, err
				}
				rebuild = true
				break
			}
			s.runs = append(s.runs, r)
		}
	}
	if rebuild {
		s.closeRuns()
		s.runs = nil
		s.watermark = 0
		// nextSeq survives a rebuild when the manifest was readable; when
		// it was not, derive it from the stray files about to be removed.
		if m != nil {
			s.nextSeq = m.nextSeq
		}
	}
	if err := ix.cleanShardFiles(s, rebuild); err != nil {
		s.closeRuns()
		return nil, err
	}
	if rebuild {
		// Commit the clean state so a crash before the caller's container
		// rescan finishes simply repeats the rescan at the next open.
		if err := writeManifest(ix.fsys, ix.dir, id, &manifest{nextSeq: s.nextSeq}); err != nil {
			s.closeRuns()
			return nil, err
		}
		if err := removeMarker(ix.fsys, ix.dir, id); err != nil {
			s.closeRuns()
			return nil, err
		}
	}
	return s, nil
}

// cleanShardFiles removes run files the shard does not reference (strays
// from an interrupted flush, compaction, or rebuild) and leftover
// manifest temp files.
func (ix *Index) cleanShardFiles(s *Shard, rebuild bool) error {
	live := make(map[string]bool, len(s.runs))
	for _, r := range s.runs {
		live[filepath.Base(r.path)] = true
	}
	pattern := filepath.Join(ix.dir, fmt.Sprintf("run-%04d-*.fdi", s.id))
	matches, err := ix.fsys.Glob(pattern)
	if err != nil {
		return err
	}
	for _, path := range matches {
		if live[filepath.Base(path)] {
			continue
		}
		if rebuild {
			if seq, ok := parseRunSeq(filepath.Base(path), s.id); ok && seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
		if err := ix.fsys.Remove(path); err != nil {
			return err
		}
	}
	// Stat first: opening a fresh index directory mutates nothing.
	tmp := filepath.Join(ix.dir, manifestName(s.id)+".tmp")
	if _, err := ix.fsys.Stat(tmp); err == nil {
		ix.fsys.Remove(tmp)
	}
	return nil
}

// parseRunSeq extracts the sequence number from a run file name.
func parseRunSeq(base string, shard int) (uint64, bool) {
	var gotShard int
	var seq uint64
	if n, err := fmt.Sscanf(base, "run-%04d-%012d.fdi", &gotShard, &seq); n != 2 || err != nil || gotShard != shard {
		return 0, false
	}
	return seq, true
}

// Shards returns the number of shards.
func (ix *Index) Shards() int { return len(ix.shards) }

// Shard returns shard i.
func (ix *Index) Shard(i int) *Shard { return ix.shards[i] }

// Counters returns cumulative lookup statistics.
func (ix *Index) Counters() Counters {
	return Counters{
		BloomNegative:  ix.bloomNeg.Load(),
		MemtableHits:   ix.memHits.Load(),
		BlockCacheHits: ix.cacheHits.Load(),
		DiskProbes:     ix.diskProbes.Load(),
	}
}

// CacheUsed returns the block cache's current cost in bytes.
func (ix *Index) CacheUsed() uint64 {
	ix.cacheMu.Lock()
	defer ix.cacheMu.Unlock()
	return ix.cache.Used()
}

// Close closes every run file and reports a failed merge of any shard.
// It does not flush memtables — the dedup store flushes each shard
// against its sealed-container count before closing the index.
func (ix *Index) Close() error {
	var first error
	for _, s := range ix.shards {
		s.mu.Lock()
		if s.compactErr != nil && first == nil {
			first = s.compactErr
		}
		if err := s.closeRunsLocked(); err != nil && first == nil {
			first = err
		}
		s.mu.Unlock()
	}
	return first
}

// cachedBlock reads run block bi through the shared LRU cache.
func (ix *Index) cachedBlock(r *run, bi int) ([]byte, error) {
	key := blockKey{shard: r.shard, seq: r.seq, block: bi}
	ix.cacheMu.Lock()
	block, ok := ix.cache.Get(key)
	ix.cacheMu.Unlock()
	if ok {
		ix.cacheHits.Add(1)
		return block, nil
	}
	block, err := r.readBlock(bi)
	if err != nil {
		return nil, err
	}
	ix.diskProbes.Add(1)
	ix.cacheMu.Lock()
	ix.cache.Put(key, block, uint64(len(block)))
	ix.cacheMu.Unlock()
	return block, nil
}

func (s *Shard) closeRuns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeRunsLocked()
}

func (s *Shard) closeRunsLocked() error {
	var first error
	for _, r := range s.runs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	return first
}

// Insert records fp at loc in the memtable. The dedup store inserts each
// fingerprint at most once per shard lifetime; re-inserting (container
// rescan after a crash) simply overwrites with the same location.
func (s *Shard) Insert(fp fphash.Fingerprint, loc container.Location) {
	s.mu.Lock()
	s.mem[fp] = loc
	s.mu.Unlock()
}

// Lookup finds fp, checking the memtable, then each run newest to oldest
// (filter, fence, one block read through the shared cache). A lookup
// error means an index block failed its checksum — the caller treats the
// fingerprint as missing (a spurious re-store dedups at append time)
// rather than trusting a bad block.
func (s *Shard) Lookup(fp fphash.Fingerprint) (container.Location, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if loc, ok := s.mem[fp]; ok {
		s.ix.memHits.Add(1)
		return loc, true, nil
	}
	probed := false
	for _, r := range s.runs {
		if !r.filter.Contains(fp) {
			continue
		}
		bi := r.findBlock(fp)
		if bi < 0 {
			continue
		}
		probed = true
		block, err := s.ix.cachedBlock(r, bi)
		if err != nil {
			return container.Location{}, false, err
		}
		if loc, ok := searchBlock(block, fp); ok {
			return loc, true, nil
		}
	}
	if !probed {
		s.ix.bloomNeg.Add(1)
	}
	return container.Location{}, false, nil
}

// Count returns the shard's total posting count. Memtable and runs are
// disjoint (flush removes what it writes; rescan re-adds only postings
// past the watermark), and one fingerprint never spans two runs.
func (s *Shard) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.mem)
	for _, r := range s.runs {
		n += int(r.count)
	}
	return n
}

// MemLen returns the memtable's entry count.
func (s *Shard) MemLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}

// NeedsFlush reports whether the memtable has reached its threshold.
func (s *Shard) NeedsFlush() bool {
	return s.MemLen() >= s.ix.opts.MemtableEntries
}

// Watermark returns how many sealed containers the on-disk runs fully
// cover; the caller rescans containers from here on open.
func (s *Shard) Watermark() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.watermark
}

// RunCount returns the number of on-disk runs (test hook).
func (s *Shard) RunCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// Flush writes the memtable postings that live in sealed containers
// (Loc.Container < sealed) to a new level-0 run and commits a manifest
// with watermark = sealed. Open-container postings stay in the memtable:
// their container could still lose a crash race, and the container
// rescan would restore them anyway. On error the memtable is unchanged
// and any partial run file is a stray removed at the next open.
//
// A flush that fills a level merges it before returning, on the caller's
// goroutine and under the shard lock. A failed merge does not fail the
// flush, which has committed; Close reports it.
func (s *Shard) Flush(sealed int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(sealed); err != nil {
		return err
	}
	for level := s.pickLevelLocked(); level >= 0; level = s.pickLevelLocked() {
		if err := s.mergeLocked(level); err != nil {
			s.compactErr = err
			break
		}
	}
	return nil
}

func (s *Shard) flushLocked(sealed int) error {
	if sealed < s.watermark {
		return fmt.Errorf("fpindex: flush watermark moved backwards: %d < %d", sealed, s.watermark)
	}
	ps := make([]Posting, 0, len(s.mem))
	for fp, loc := range s.mem {
		if loc.Container < sealed {
			ps = append(ps, Posting{FP: fp, Loc: loc})
		}
	}
	if len(ps) == 0 {
		if sealed == s.watermark {
			return nil
		}
		// Nothing new to persist, but record the advanced watermark so
		// the next open skips these (empty or fully-deduplicated)
		// containers.
		m := s.manifestLocked()
		m.watermark = sealed
		if err := writeManifest(s.ix.fsys, s.ix.dir, s.id, m); err != nil {
			return err
		}
		s.watermark = sealed
		return nil
	}
	sortPostings(ps)
	r, err := writeRun(s.ix.fsys, s.ix.dir, s.id, s.nextSeq, 0, &sliceSource{ps: ps})
	if err != nil {
		return err
	}
	m := s.manifestLocked()
	m.watermark = sealed
	m.nextSeq = s.nextSeq + 1
	m.runs = append([]runRef{{seq: r.seq, level: 0, count: r.count}}, m.runs...)
	if err := writeManifest(s.ix.fsys, s.ix.dir, s.id, m); err != nil {
		r.close()
		s.ix.fsys.Remove(r.path)
		return err
	}
	s.nextSeq++
	s.watermark = sealed
	s.runs = append([]*run{r}, s.runs...)
	for _, p := range ps {
		delete(s.mem, p.FP)
	}
	return nil
}

// manifestLocked snapshots the shard's committed state as a manifest.
func (s *Shard) manifestLocked() *manifest {
	m := &manifest{watermark: s.watermark, nextSeq: s.nextSeq, runs: make([]runRef, len(s.runs))}
	for i, r := range s.runs {
		m.runs[i] = runRef{seq: r.seq, level: r.level, count: r.count}
	}
	return m
}

// pickLevelLocked returns a level holding fanout or more runs, or -1.
func (s *Shard) pickLevelLocked() int {
	counts := map[int]int{}
	for _, r := range s.runs {
		counts[r.level]++
	}
	for level, n := range counts {
		if n >= fanout {
			return level
		}
	}
	return -1
}

// mergeLocked k-way merges every run on level into one run on the next
// level and commits it. Runs are newest-first with non-decreasing
// levels, so the victims are one contiguous stretch of s.runs and the
// merged run takes their place. The merged run's sequence number is
// consumed even if the merge fails, so it is never reused.
func (s *Shard) mergeLocked(level int) error {
	lo := 0
	for s.runs[lo].level != level {
		lo++
	}
	hi := lo
	for hi < len(s.runs) && s.runs[hi].level == level {
		hi++
	}
	victims := s.runs[lo:hi]
	seq := s.nextSeq
	s.nextSeq++
	merged, err := writeRun(s.ix.fsys, s.ix.dir, s.id, seq, level+1, newMergeSource(victims))
	if err != nil {
		return err
	}
	old := s.runs
	runs := append(make([]*run, 0, len(old)-len(victims)+1), old[:lo]...)
	s.runs = append(append(runs, merged), old[hi:]...)
	if err := writeManifest(s.ix.fsys, s.ix.dir, s.id, s.manifestLocked()); err != nil {
		s.runs = old
		merged.close()
		s.ix.fsys.Remove(merged.path)
		return err
	}
	// The manifest no longer references the victims; removing them is
	// cleanup, and a crash here leaves strays for the next open.
	for _, r := range victims {
		r.close()
		s.ix.fsys.Remove(r.path)
	}
	return nil
}

// BeginLayoutChange durably marks the shard before a container layout
// change (GC compaction, repair): from this point the on-disk runs are
// suspect until CompleteLayoutChange commits a rebuilt index, and a
// crash in between forces a full container rescan at the next open.
func (s *Shard) BeginLayoutChange() error {
	return writeMarker(s.ix.fsys, s.ix.dir, s.id)
}

// AbortLayoutChange removes the marker after a layout change that never
// modified the containers (e.g. GC failing before its rewrite).
func (s *Shard) AbortLayoutChange() error {
	return removeMarker(s.ix.fsys, s.ix.dir, s.id)
}

// CompleteLayoutChange replaces the shard's entire state after container
// renumbering: live maps ALL live fingerprints to their locations under
// the new layout, sealed is the new sealed-container count. Sealed
// postings become one run on a fresh level 0; open-container postings
// form the new memtable, which takes ownership of live. On persist
// failure the in-memory index stays correct (everything in the memtable)
// and the marker stays down, so the next open rebuilds.
func (s *Shard) CompleteLayoutChange(live map[fphash.Fingerprint]container.Location, sealed int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldRuns := s.runs
	s.runs = nil
	s.mem = live
	var sealedPs []Posting
	for fp, loc := range live {
		if loc.Container < sealed {
			sealedPs = append(sealedPs, Posting{FP: fp, Loc: loc})
			delete(live, fp)
		}
	}
	fail := func(err error) error {
		// Keep lookups correct from memory alone; the marker stays down.
		for _, p := range sealedPs {
			s.mem[p.FP] = p.Loc
		}
		s.watermark = 0
		for _, r := range oldRuns {
			r.close()
		}
		return err
	}
	var newRuns []*run
	m := &manifest{watermark: sealed, nextSeq: s.nextSeq}
	if len(sealedPs) > 0 {
		sortPostings(sealedPs)
		r, err := writeRun(s.ix.fsys, s.ix.dir, s.id, s.nextSeq, 0, &sliceSource{ps: sealedPs})
		if err != nil {
			return fail(err)
		}
		m.nextSeq = s.nextSeq + 1
		m.runs = []runRef{{seq: r.seq, level: 0, count: r.count}}
		newRuns = []*run{r}
	}
	if err := writeManifest(s.ix.fsys, s.ix.dir, s.id, m); err != nil {
		for _, r := range newRuns {
			r.close()
			s.ix.fsys.Remove(r.path)
		}
		return fail(err)
	}
	s.nextSeq = m.nextSeq
	s.watermark = sealed
	s.runs = newRuns
	if err := removeMarker(s.ix.fsys, s.ix.dir, s.id); err != nil {
		return err
	}
	// Old runs are unreferenced now; remove them, strays are cleaned on
	// open anyway.
	for _, r := range oldRuns {
		r.close()
		s.ix.fsys.Remove(r.path)
	}
	return nil
}
