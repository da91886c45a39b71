// Package ddfs implements the paper's deduplication prototype (Section
// 7.4): a Data Domain File System-like metadata pipeline that detects
// duplicates with an in-memory fingerprint cache, a Bloom filter, and an
// on-disk fingerprint index, storing unique chunks in logical order in
// containers and prefetching container fingerprints on index hits.
//
// The prototype tracks the on-disk metadata access volume in the paper's
// three categories:
//
//   - update access: writing the metadata of newly stored unique chunks to
//     the fingerprint index (steps S2/S3);
//   - index access: on-disk fingerprint index lookups (step S3);
//   - loading access: reading a whole container's fingerprints into the
//     cache on an index hit (step S4).
//
// Only metadata flow is simulated — chunk data I/O and crypto are outside
// the scope of the paper's Section 7.4 measurement, as in the original.
package ddfs

import (
	"fmt"

	"freqdedup/internal/bloom"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/lru"
	"freqdedup/internal/trace"
)

// EntryBytes is the on-disk metadata size per fingerprint (paper: 32 B).
const EntryBytes = 32

// Config configures the prototype.
type Config struct {
	// ContainerBytes is the container capacity (paper: 4 MB).
	ContainerBytes int
	// CacheBytes bounds the in-memory fingerprint cache (paper: 512 MB or
	// 4 GB; scale with the dataset). Zero means unbounded.
	CacheBytes uint64
	// ExpectedFingerprints sizes the Bloom filter.
	ExpectedFingerprints uint64
	// BloomFPP is the Bloom filter's target false-positive rate (paper:
	// 0.01).
	BloomFPP float64
}

// DefaultConfig returns the paper's configuration with an unbounded cache;
// set CacheBytes to model a constrained cache.
func DefaultConfig(expectedFPs uint64) Config {
	return Config{
		ContainerBytes:       container.DefaultBytes,
		CacheBytes:           0,
		ExpectedFingerprints: expectedFPs,
		BloomFPP:             0.01,
	}
}

// AccessStats is the per-category on-disk metadata access volume in bytes.
type AccessStats struct {
	UpdateBytes  uint64
	IndexBytes   uint64
	LoadingBytes uint64
}

// Total returns the overall metadata access volume.
func (a AccessStats) Total() uint64 { return a.UpdateBytes + a.IndexBytes + a.LoadingBytes }

// add accumulates o into a.
func (a *AccessStats) add(o AccessStats) {
	a.UpdateBytes += o.UpdateBytes
	a.IndexBytes += o.IndexBytes
	a.LoadingBytes += o.LoadingBytes
}

// System is the DDFS-like deduplication prototype.
//
// Its containers hold metadata only: each sealed container is the list of
// its chunks' fingerprints, densely numbered from 0 in seal order. The
// open container seals by container.Store.Append's rule — when it is
// non-empty and the next chunk would overflow ContainerBytes.
type System struct {
	cfg        Config
	index      map[fphash.Fingerprint]int // on-disk fingerprint index: fp -> container ID
	bloom      *bloom.Filter
	cache      *lru.Cache[fphash.Fingerprint, int] // fingerprint cache: fp -> container ID
	containers [][]fphash.Fingerprint              // sealed containers' fingerprints, by ID
	open       []fphash.Fingerprint                // the open container's fingerprints
	openBytes  int                                 // the open container's chunk bytes
	buffered   map[fphash.Fingerprint]struct{}     // fps in the open container

	total     AccessStats
	dupHits   uint64 // duplicates detected (cache, buffer, or index)
	uniques   uint64 // unique chunks stored
	cacheHits uint64 // duplicates resolved by the cache without disk access
}

// New returns an empty prototype. It panics on a negative container size
// or an out-of-range Bloom FPP.
func New(cfg Config) *System {
	if cfg.ContainerBytes < 0 {
		panic(fmt.Sprintf("ddfs: container size must not be negative, got %d", cfg.ContainerBytes))
	}
	if cfg.ContainerBytes == 0 {
		cfg.ContainerBytes = container.DefaultBytes
	}
	if cfg.BloomFPP == 0 {
		cfg.BloomFPP = 0.01
	}
	if cfg.ExpectedFingerprints == 0 {
		cfg.ExpectedFingerprints = 1 << 20
	}
	// Pre-size the index for the expected fingerprint population (it holds
	// every unique chunk eventually) and the open-container buffer for one
	// container's worth of entries (4 KB chunks, the smallest the paper's
	// datasets use, bound the count), so neither rehashes on the hot path.
	bufferedHint := cfg.ContainerBytes / 4096
	return &System{
		cfg:      cfg,
		index:    make(map[fphash.Fingerprint]int, cfg.ExpectedFingerprints),
		bloom:    bloom.NewWithEstimates(cfg.ExpectedFingerprints, cfg.BloomFPP),
		cache:    lru.New[fphash.Fingerprint, int](cfg.CacheBytes, nil),
		buffered: make(map[fphash.Fingerprint]struct{}, bufferedHint),
	}
}

// StoreBackup processes one backup's ciphertext chunk stream in logical
// order and returns the metadata access volume it caused.
func (s *System) StoreBackup(b *trace.Backup) AccessStats {
	var st AccessStats
	for _, c := range b.Chunks {
		s.process(c, &st)
	}
	// Seal the trailing partial container so its index updates are
	// attributed to this backup, as a backup completion would.
	s.seal(&st)
	s.total.add(st)
	return st
}

func (s *System) process(c trace.ChunkRef, st *AccessStats) {
	// Step S1: fingerprint cache.
	if _, ok := s.cache.Get(c.FP); ok {
		s.dupHits++
		s.cacheHits++
		return
	}
	// Chunks buffered in the open container are duplicates too; DDFS
	// resolves them in memory.
	if _, ok := s.buffered[c.FP]; ok {
		s.dupHits++
		return
	}
	// Step S2: Bloom filter.
	if !s.bloom.Contains(c.FP) {
		s.storeUnique(c, st)
		return
	}
	// Step S3: on-disk fingerprint index lookup.
	st.IndexBytes += EntryBytes
	id, ok := s.index[c.FP]
	if !ok {
		// Bloom false positive: the chunk is in fact unique.
		s.storeUnique(c, st)
		return
	}
	// Step S4: duplicate — load the whole container's fingerprints into
	// the cache (chunk-locality prefetch).
	s.dupHits++
	s.loadContainer(id, st)
}

// storeUnique appends the chunk to the open container, updating the Bloom
// filter; a full container is sealed first, with its index updates.
func (s *System) storeUnique(c trace.ChunkRef, st *AccessStats) {
	s.uniques++
	s.bloom.Add(c.FP)
	if s.openBytes > 0 && s.openBytes+int(c.Size) > s.cfg.ContainerBytes {
		s.seal(st)
	}
	s.open = append(s.open, c.FP)
	s.openBytes += int(c.Size)
	s.buffered[c.FP] = struct{}{}
}

// seal closes the open container, if non-empty, as the next container ID:
// its fingerprints are written to the on-disk index (update access).
func (s *System) seal(st *AccessStats) {
	if len(s.open) == 0 {
		return
	}
	id := len(s.containers)
	for _, fp := range s.open {
		s.index[fp] = id
		delete(s.buffered, fp)
		st.UpdateBytes += EntryBytes
	}
	s.containers = append(s.containers, s.open)
	s.open = nil
	s.openBytes = 0
}

// loadContainer reads a container's fingerprints from disk into the cache
// (loading access) — the paper's step S4.
func (s *System) loadContainer(id int, st *AccessStats) {
	fps := s.containers[id]
	st.LoadingBytes += uint64(len(fps)) * EntryBytes
	for _, fp := range fps {
		s.cache.Put(fp, id, EntryBytes)
	}
}

// Totals returns the cumulative metadata access volume across all backups.
func (s *System) Totals() AccessStats { return s.total }

// UniqueChunks returns the number of unique chunks stored.
func (s *System) UniqueChunks() uint64 { return s.uniques }

// Duplicates returns the number of duplicate chunks detected.
func (s *System) Duplicates() uint64 { return s.dupHits }

// CacheHitRate returns the fraction of duplicates resolved by the
// in-memory fingerprint cache without disk access.
func (s *System) CacheHitRate() float64 {
	if s.dupHits == 0 {
		return 0
	}
	return float64(s.cacheHits) / float64(s.dupHits)
}

// Containers returns the number of containers written (including the open
// one, if non-empty).
func (s *System) Containers() int {
	if len(s.open) > 0 {
		return len(s.containers) + 1
	}
	return len(s.containers)
}
