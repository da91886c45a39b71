package dedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/chunker"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/fpindex"
	"freqdedup/internal/gcommit"
	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
)

// DefaultShards is the shard count used by NewStore. 16 stripes keep lock
// contention negligible for dozens of concurrent clients while the
// per-shard container working set stays large enough to preserve chunk
// locality within a shard.
const DefaultShards = 16

// maxShards bounds the shard count to the range addressable by the
// one-byte fingerprint prefix (fphash.Fingerprint.Shard).
const maxShards = 256

// ErrNotFound is returned by Get for a fingerprint the store does not
// hold.
var ErrNotFound = errors.New("dedup: chunk not found")

// shard is one lock stripe of the store: its shard of the fingerprint
// index over its own container packer, plus the shard's slice of the
// dedup statistics. Every field is guarded by mu. A fingerprint is owned
// by exactly one shard (fp.Shard), so per-shard indexes never disagree
// about whether a chunk is stored, and per-shard open containers make
// packing append-safe under concurrent writers without a global packer
// lock.
type shard struct {
	mu         sync.Mutex
	index      *fpindex.Shard
	containers *container.Store

	logicalBytes  uint64
	physicalBytes uint64
	logicalChunks int
}

// put is the single-shard Put body; the caller holds s.mu. The chunk's
// bytes are copied into the shard's open container (container.Store.Append),
// so the caller keeps c.Data. On a backend write error nothing is recorded
// and the chunk is reported as an upload failure. A reference-only chunk
// is a duplicate if the index holds its fingerprint; otherwise put fails
// closed with an error wrapping ErrNotFound and records nothing.
func (s *shard) put(c PutChunk) (duplicate bool, err error) {
	// A lookup error (a corrupt index block) degrades to a miss: the
	// chunk is stored again and the insert repoints the index at the
	// fresh copy — correctness over dedup ratio. A reference has no bytes
	// to store again, so for it the miss is an error.
	if _, ok, lerr := s.index.Lookup(c.FP); lerr == nil && ok {
		size := uint64(len(c.Data))
		if c.Ref {
			size = uint64(c.Size)
		}
		s.logicalChunks++
		s.logicalBytes += size
		return true, nil
	}
	if c.Ref {
		return false, fmt.Errorf("%w: reference-only chunk %v", ErrNotFound, c.FP)
	}
	n := uint64(len(c.Data))
	loc, err := s.containers.Append(container.Entry{FP: c.FP, Size: uint32(n), Data: c.Data})
	if err != nil {
		return false, err
	}
	s.index.Insert(c.FP, loc)
	s.logicalChunks++
	s.logicalBytes += n
	s.physicalBytes += n
	return false, nil
}

// maybeFlush spills the shard's index memtable to a run once it is full;
// the caller holds s.mu. Only postings in sealed containers are persisted.
func (s *shard) maybeFlush() error {
	if !s.index.NeedsFlush() {
		return nil
	}
	return s.index.Flush(s.containers.Sealed())
}

// Store is a deduplicated ciphertext-chunk store: one physical copy per
// unique ciphertext chunk, packed into containers. The fingerprint index
// (internal/fpindex: memtables over Bloom-fronted on-disk sorted runs)
// and the container packer are split into lock-striped shards keyed by
// fingerprint prefix, so concurrent clients (Figure 2's multi-client
// architecture) contend only when their chunks collide on a shard.
//
// Sealed containers live in a pluggable container.Backend: in memory by
// default (NewStore, NewStoreWithShards), or in per-shard append-only
// files via NewStoreWithBackend / Create / Open, which is what makes a
// store survive a process restart. The index lives in
// StoreOptions.IndexDir, or on a private in-memory filesystem, rebuilt
// from the containers on every open, when that is empty. Backups can be
// registered for retention management and reclaimed with GC (see gc.go).
// A Store is safe for concurrent use.
type Store struct {
	shards         []*shard
	backend        container.Backend
	containerBytes int

	// index owns the run files and block cache behind every shard's
	// *fpindex.Shard.
	index *fpindex.Index

	// Retention state (per-backup chunk references and per-chunk counts),
	// guarded by retMu. It is store-level, not sharded: backups span
	// shards and registration is off the hot path.
	retMu   sync.Mutex
	backups map[string][]fphash.Fingerprint
	refs    map[fphash.Fingerprint]int

	// Seal coalescing: concurrent Sync calls share whole-store flush
	// passes instead of each running (and fsyncing) their own. Non-sticky:
	// a failed pass fails only the Syncs waiting on it; the next Sync runs
	// a fresh pass.
	syncSeq atomic.Int64
	syncGC  *gcommit.Committer
}

// NewStore returns an empty store with the given container capacity
// (container.DefaultBytes if zero) and DefaultShards index shards.
func NewStore(containerBytes int) *Store {
	return NewStoreWithShards(containerBytes, DefaultShards)
}

// NewStoreWithShards returns an empty in-memory store with the given
// container capacity (container.DefaultBytes if zero) and shard count.
// Shards must be in [1, 256]; zero selects DefaultShards. With shards ==
// 1 the store degenerates to the original serial engine: a single index
// and a single container sequence, with chunk placement bit-for-bit
// identical to it.
func NewStoreWithShards(containerBytes, shards int) *Store {
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 1 || shards > maxShards {
		panic("dedup: shard count out of range [1, 256]")
	}
	s, err := NewStoreWithBackend(containerBytes, container.NewMemBackend(shards))
	if err != nil {
		// The memory backend holds no pre-existing state and cannot fail.
		panic(fmt.Sprintf("dedup: %v", err))
	}
	return s
}

// NewStoreWithBackend returns a store persisting sealed containers
// through the given backend, with one index shard per backend shard. If
// containerBytes is zero the backend's recorded capacity is used when it
// has one (a FileBackend), container.DefaultBytes otherwise.
//
// The fingerprint index lives on a private in-memory filesystem. If the
// backend already holds containers (a reopened store directory), the
// index is rebuilt from their index headers — chunk data is not read —
// and new chunks pack after the existing containers.
// Dedup statistics of a reopened store count each pre-existing unique
// chunk as stored once; cross-restart logical totals are not preserved.
func NewStoreWithBackend(containerBytes int, backend container.Backend) (*Store, error) {
	return NewStoreWithOptions(backend, StoreOptions{ContainerBytes: containerBytes})
}

// StoreOptions configures NewStoreWithOptions. The zero value reproduces
// NewStoreWithBackend's behavior exactly (index on a private in-memory
// filesystem, backend-recorded container capacity).
type StoreOptions struct {
	// ContainerBytes is the container capacity; zero uses the backend's
	// recorded capacity when it has one, container.DefaultBytes otherwise.
	ContainerBytes int
	// IndexDir is the directory holding the fingerprint index's run files
	// and manifests. Empty keeps the index on a private in-memory
	// filesystem, rebuilt from the containers on every open. It must not
	// be the container store directory itself (the index glob would
	// collide with shard files) — a subdirectory of it is the convention.
	IndexDir string
	// FS is the filesystem IndexDir lives on (vfs.OS if nil).
	// Fault-injection harnesses pass the same faulty FS the container
	// backend uses.
	FS vfs.FS
	// MemtableEntries and CacheBytes tune the index; zero values select
	// fpindex defaults.
	MemtableEntries int
	CacheBytes      int64
	// RebuildIndex discards any existing index state and rebuilds from
	// container metadata — the recovery lever after external damage, and
	// what repository open uses after a salvage.
	RebuildIndex bool
}

// NewStoreWithOptions is NewStoreWithBackend with an options struct; see
// StoreOptions. Opening does no full container scan of a persisted index:
// each shard recovers its packer counters from the backend's sealed
// stats, loads run footers and Bloom filters, and rescans only the
// container tail past the index's durable watermark (the containers
// sealed since the last index flush — the containers themselves are the
// write-ahead log).
//
// If any shard's watermark exceeds the backend's sealed count, the index
// belongs to a different container history (a restored or rolled-back
// store directory), so the whole index is rebuilt from container metadata
// instead of trusted.
func NewStoreWithOptions(backend container.Backend, opts StoreOptions) (*Store, error) {
	shards := backend.Shards()
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("dedup: backend shard count %d out of range [1, 256]", shards)
	}
	containerBytes := opts.ContainerBytes
	if containerBytes == 0 {
		if cb, ok := backend.(interface{ ContainerBytes() int }); ok {
			containerBytes = cb.ContainerBytes()
		} else {
			containerBytes = container.DefaultBytes
		}
	}
	fsys, dir := opts.FS, opts.IndexDir
	if dir == "" {
		fsys, dir = vfs.NewMem(), "fpindex"
	} else if fsys == nil {
		fsys = vfs.OS
	}
	fpOpts := fpindex.Options{
		Shards:          shards,
		MemtableEntries: opts.MemtableEntries,
		CacheBytes:      opts.CacheBytes,
		ForceRebuild:    opts.RebuildIndex,
	}
	s := &Store{
		shards:         make([]*shard, shards),
		backend:        backend,
		containerBytes: containerBytes,
	}
	for pass := 0; ; pass++ {
		ix, err := fpindex.Open(fsys, dir, fpOpts)
		if err != nil {
			return nil, fmt.Errorf("dedup: open fingerprint index: %w", err)
		}
		stale, err := s.openShards(ix, backend, containerBytes)
		if err != nil {
			ix.Close()
			return nil, err
		}
		if !stale {
			s.index = ix
			break
		}
		if err := ix.Close(); err != nil {
			return nil, fmt.Errorf("dedup: close stale fingerprint index: %w", err)
		}
		if pass > 0 {
			return nil, errors.New("dedup: fingerprint index watermark ahead of container store after rebuild")
		}
		fpOpts.ForceRebuild = true
	}
	s.syncGC = gcommit.New(s.syncAllShards, false)
	return s, nil
}

// openShards builds every shard over ix: the container packer, plus a
// rescan of the containers past the index shard's watermark into its
// memtable. stale reports an index shard whose watermark is past the
// backend's sealed count — an index from another container history.
func (s *Store) openShards(ix *fpindex.Index, backend container.Backend, containerBytes int) (stale bool, err error) {
	for i := range s.shards {
		cs, err := container.NewWithBackend(containerBytes, backend, i, nil)
		if err != nil {
			return false, fmt.Errorf("dedup: open shard %d containers: %w", i, err)
		}
		fsh := ix.Shard(i)
		if fsh.Watermark() > cs.Sealed() {
			return true, nil
		}
		err = container.ScanFrom(backend, i, fsh.Watermark(), false, func(c *container.Container) error {
			for j, e := range c.Entries {
				fsh.Insert(e.FP, container.Location{Container: c.ID, Index: j})
			}
			return nil
		})
		if err != nil {
			return false, fmt.Errorf("dedup: rescan shard %d tail: %w", i, err)
		}
		// Reopen semantics: each pre-existing unique chunk counts once.
		physical := uint64(cs.Bytes())
		s.shards[i] = &shard{
			index:         fsh,
			containers:    cs,
			physicalBytes: physical,
			logicalBytes:  physical,
			logicalChunks: fsh.Count(),
		}
	}
	return false, nil
}

// Create initializes a new file-backed store directory with the given
// container capacity (container.DefaultBytes if zero) and shard count
// (DefaultShards if zero) and returns the empty store. It fails if dir
// already holds a store.
func Create(dir string, containerBytes, shards int) (*Store, error) {
	if containerBytes == 0 {
		containerBytes = container.DefaultBytes
	}
	if shards == 0 {
		shards = DefaultShards
	}
	b, err := container.CreateFileBackend(dir, shards, containerBytes)
	if err != nil {
		return nil, err
	}
	s, err := NewStoreWithBackend(containerBytes, b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return s, nil
}

// Open reopens a file-backed store directory created by Create (or by
// container.CreateFileBackend), rebuilding the fingerprint index from the
// containers' index headers. Only sealed containers are durable: chunks
// that were still in open containers when the previous process died are
// gone (Close seals them on clean shutdown), and a record torn by a
// mid-append crash is discarded.
func Open(dir string) (*Store, error) {
	b, err := container.OpenFileBackend(dir)
	if err != nil {
		return nil, err
	}
	s, err := NewStoreWithBackend(0, b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return s, nil
}

// Close seals every shard's open container through the backend, flushes
// the fingerprint index so the next open rescans no container tail, and
// closes the backend. After a clean Close, Open restores every stored
// chunk. The store must not be used afterwards.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		_, err := sh.containers.Flush()
		if err == nil {
			// Flush the index only after a successful seal: the index may
			// never claim coverage of containers that are not durable.
			err = sh.index.Flush(sh.containers.Sealed())
		}
		// Sealed or not, the open container is never read again: its
		// arena blocks go back to the pool.
		sh.containers.Close()
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	if err := s.index.Close(); err != nil && first == nil {
		first = err
	}
	if err := s.backend.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Sync seals every shard's open container through the backend without
// closing it, making everything stored so far as durable as the backend
// makes sealed containers (FileBackend: fsynced to disk). The store stays
// usable; subsequent Puts open fresh containers. Syncing after every small
// backup trades container packing density for per-backup durability —
// that is the Repository front door's contract.
//
// A pass holds every shard lock and seals all open containers together
// (container.FlushAll): on a FileBackend the records are serialized
// concurrently, written in shard order, and their fsyncs overlapped
// (vfs.StartSync), so the pass waits for the disk about once rather than
// once per shard. A shard whose seal failed keeps its container open;
// the others are sealed, and Sync reports the lowest failing shard.
//
// Concurrent Syncs coalesce: a flush pass that starts after a Sync call
// arrives covers it, so N simultaneous callers share far fewer passes
// (and per-shard fsyncs) than N. Sync returns only after a covering pass
// has completed — never on the strength of a pass already in flight when
// it was called.
func (s *Store) Sync() error {
	return s.syncGC.Commit(s.syncSeq.Add(1))
}

// syncAllShards is the coalesced barrier: one pass sealing every shard's
// open container. It holds every shard lock (lockAll, the global lock
// order, which GC and Repair take too) while container.FlushAll seals
// the open containers together.
func (s *Store) syncAllShards() error {
	s.lockAll()
	defer s.unlockAll()
	packers := make([]*container.Store, len(s.shards))
	for i, sh := range s.shards {
		packers[i] = sh.containers
	}
	if i, err := container.FlushAll(packers); err != nil {
		return fmt.Errorf("dedup: sync shard %d: %w", i, err)
	}
	return nil
}

// SealSyncs returns how many coalesced flush passes have run — with
// concurrent Syncs this is less than the call count.
func (s *Store) SealSyncs() int64 { return s.syncGC.Syncs() }

// Contains reports whether the store holds a chunk with the given
// fingerprint. It is an index lookup only; a negative answer usually
// costs a memtable probe plus one Bloom-filter probe per run, and no
// disk read.
// An index read error reports the chunk as absent — the safe direction
// for negotiation (the client re-uploads).
func (s *Store) Contains(fp fphash.Fingerprint) bool {
	sh := s.shardFor(fp)
	sh.mu.Lock()
	_, ok, err := sh.index.Lookup(fp)
	sh.mu.Unlock()
	return ok && err == nil
}

// ContainsBatch is the chunk-negotiation lookup: miss[i] reports whether
// the store is MISSING fps[i] (the caller should upload it). One shard
// lock acquisition per run of same-shard fingerprints instead of one per
// fingerprint, which matters at wire-protocol window sizes. The result
// reuses miss when its capacity suffices. Like Contains it is a snapshot:
// a concurrent Put may make a reported miss stale, which the Put path
// resolves as an ordinary duplicate.
func (s *Store) ContainsBatch(fps []fphash.Fingerprint, miss []bool) []bool {
	if cap(miss) < len(fps) {
		miss = make([]bool, len(fps))
	}
	miss = miss[:len(fps)]
	var held *shard
	for i, fp := range fps {
		sh := s.shardFor(fp)
		if sh != held {
			if held != nil {
				held.mu.Unlock()
			}
			sh.mu.Lock()
			held = sh
		}
		_, ok, err := sh.index.Lookup(fp)
		miss[i] = !ok || err != nil
	}
	if held != nil {
		held.mu.Unlock()
	}
	return miss
}

// Verify reads every container — open and sealed — and checks each stored
// chunk's content against its recorded fingerprint; for a file-backed
// store the per-record CRC is verified by the same read. Any mismatch is
// reported as an error wrapping container.ErrCorrupt: corruption surfaces
// as an error, never as silent wrong bytes on a later restore. Each shard
// is locked while it is scanned, so Verify sees a consistent per-shard
// snapshot; ctx is checked between containers, and a cancelled Verify
// returns ctx.Err().
func (s *Store) Verify(ctx context.Context) error {
	checkEntries := func(si, id int, entries []container.Entry) error {
		for _, e := range entries {
			if fphash.FromBytes(e.Data) != e.FP {
				return fmt.Errorf("%w: shard %d container %d: chunk %v content does not match its fingerprint",
					container.ErrCorrupt, si, id, e.FP)
			}
		}
		return nil
	}
	for si, sh := range s.shards {
		sh.mu.Lock()
		err := s.backend.Scan(si, true, func(c *container.Container) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return checkEntries(si, c.ID, c.Entries)
		})
		if err == nil {
			if cur := sh.containers.Current(); cur != nil {
				err = checkEntries(si, cur.ID, cur.Entries)
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// ShardCount returns the number of index shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardFor returns the shard owning fp.
func (s *Store) shardFor(fp fphash.Fingerprint) *shard {
	return s.shards[fp.Shard(len(s.shards))]
}

// Put stores a ciphertext chunk, deduplicating against previously stored
// chunks. It reports whether the chunk was a duplicate. Only the owning
// shard is locked, so Puts of chunks on different shards proceed in
// parallel.
func (s *Store) Put(fp fphash.Fingerprint, data []byte) (duplicate bool, err error) {
	sh := s.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	dup, err := sh.put(PutChunk{FP: fp, Data: data})
	if err == nil {
		err = sh.maybeFlush()
	}
	return dup, err
}

// PutChunk is one chunk of a PutBatch upload: either the chunk's bytes,
// or, with Ref set, a reference-only chunk that names a chunk the store
// already holds by fingerprint and size and carries no bytes at all.
type PutChunk struct {
	// FP is the chunk's (ciphertext) fingerprint.
	FP fphash.Fingerprint
	// Data is the chunk content. The store copies it into its open
	// container; PutBatch's caller keeps it, and PutBatchOwned's owns it
	// through Buf. It is ignored for a reference-only chunk.
	Data []byte
	// Ref marks a reference-only chunk: the store counts it as a
	// duplicate of the chunk its index holds under FP, or, if the index
	// does not hold FP, fails the put with an error wrapping ErrNotFound
	// and records nothing for it. A reference is only ever this explicit
	// marker — never an empty Data, which is a zero-length chunk.
	Ref bool
	// Size is a reference-only chunk's ciphertext size, the logical bytes
	// it adds; for a chunk with bytes it is ignored and len(Data) counts.
	Size uint32
	// Buf is the pooled chunker buffer the put came from, when it came
	// from the backup pipeline. A chunk with bytes was encrypted in place,
	// so its Data is Buf.Data. A reference-only chunk carries its
	// plaintext there, as the chunker produced it: a sink that finds the
	// chunk missing encrypts it under its convergent key,
	// mle.ConvergentKey(Buf.Data), in place. PutBatchOwned owns Buf and
	// hands it back to the chunker pool once it no longer needs it, on
	// every path; PutBatch ignores it.
	Buf chunker.Chunk
}

// PutBatch stores a batch of ciphertext chunks, deduplicating each, and
// reports per-chunk whether it was a duplicate (indexed like chunks).
// Chunks are grouped by shard so each shard is locked once per batch
// rather than once per chunk; within a shard, chunks are stored in batch
// order, so with a single shard the container layout is identical to
// issuing the Puts sequentially. Shards are visited in index order. On
// error, the chunks of earlier shards and those of the failing chunk's
// shard before it remain stored (re-uploading them deduplicates). The
// store copies what it keeps, so the caller keeps every Data.
func (s *Store) PutBatch(chunks []PutChunk) ([]bool, error) {
	dups := make([]bool, len(chunks))
	if len(chunks) == 0 {
		return dups, nil
	}
	if len(s.shards) == 1 {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for i, c := range chunks {
			var err error
			if dups[i], err = sh.put(c); err != nil {
				return dups, err
			}
		}
		return dups, sh.maybeFlush()
	}
	// Group chunk indexes by shard, preserving batch order within each
	// group to keep per-shard placement deterministic. Shards are visited
	// in index order, so what a failed batch leaves stored is
	// deterministic too.
	groups := make([][]int, len(s.shards))
	for i, c := range chunks {
		si := c.FP.Shard(len(s.shards))
		groups[si] = append(groups[si], i)
	}
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			var err error
			if dups[i], err = sh.put(chunks[i]); err != nil {
				sh.mu.Unlock()
				return dups, err
			}
		}
		// One spill check per shard per batch, not per chunk: the flush
		// itself is amortized over a full memtable of inserts.
		err := sh.maybeFlush()
		sh.mu.Unlock()
		if err != nil {
			return dups, err
		}
	}
	return dups, nil
}

// PutBatchOwned is PutBatch for the backup pipeline's windows (the Sink
// method): the call owns every chunk's Buf, and the store hands each one
// back to the chunker pool once its bytes are copied into a container, or,
// for a reference-only chunk, unread, on every path. The caller must not
// touch any chunk's Data or Buf after the call.
func (s *Store) PutBatchOwned(chunks []PutChunk) ([]bool, error) {
	dups, err := s.PutBatch(chunks)
	for _, c := range chunks {
		c.Buf.Release()
	}
	return dups, err
}

// Get retrieves a stored ciphertext chunk by fingerprint. It returns
// ErrNotFound for unknown fingerprints; other errors indicate the backend
// could not produce the chunk (for example container.ErrCorrupt from a
// damaged store file).
//
// The shard lock covers only the index lookup (and the open container,
// when the chunk is still in it); sealed containers are immutable and
// read from the backend outside the lock, so a container-sized disk read
// never blocks the shard's writers. A GC pass can move the chunk between
// the lookup and the read — the fetched entry's fingerprint is verified,
// and a stale read retries under the lock, where GC (which holds every
// shard lock) cannot interleave.
func (s *Store) Get(fp fphash.Fingerprint) ([]byte, error) {
	sh := s.shardFor(fp)
	sh.mu.Lock()
	loc, ok, err := sh.index.Lookup(fp)
	if err != nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("dedup: index lookup %v: %w", fp, err)
	}
	if !ok {
		sh.mu.Unlock()
		return nil, ErrNotFound
	}
	if cur := sh.containers.Current(); cur != nil && cur.ID == loc.Container {
		// The open container's bytes are recycled at its seal: copy them
		// under the lock.
		var data []byte
		if loc.Index >= 0 && loc.Index < len(cur.Entries) {
			data = bytes.Clone(cur.Entries[loc.Index].Data)
		}
		sh.mu.Unlock()
		if data == nil {
			return nil, ErrNotFound
		}
		return data, nil
	}
	sh.mu.Unlock()
	return s.getSealed(sh, fp, loc)
}

// getSealed reads a sealed chunk outside the shard lock, verifying the
// location is still current, with a locked retry for the GC race.
func (s *Store) getSealed(sh *shard, fp fphash.Fingerprint, loc container.Location) ([]byte, error) {
	shardIdx := fp.Shard(len(s.shards))
	c, err := s.backend.Load(shardIdx, loc.Container, nil)
	if err == nil && loc.Index >= 0 && loc.Index < len(c.Entries) && c.Entries[loc.Index].FP == fp {
		return c.Entries[loc.Index].Data, nil
	}
	if err != nil && !errors.Is(err, container.ErrNotFound) {
		return nil, err
	}
	// Stale location: a GC pass compacted the shard mid-read. Retake the
	// lock for an authoritative view.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	loc, ok, lerr := sh.index.Lookup(fp)
	if lerr != nil {
		return nil, fmt.Errorf("dedup: index lookup %v: %w", fp, lerr)
	}
	if !ok {
		return nil, ErrNotFound
	}
	e, err := sh.containers.Get(loc)
	if err != nil {
		if errors.Is(err, container.ErrNotFound) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	if e.FP != fp {
		// The location resolved to someone else's chunk: the index and
		// container disagree (possible only under external damage).
		return nil, ErrNotFound
	}
	// The location may be in the open container now (GC moves survivors
	// of the old one there), whose bytes do not outlive the lock.
	return bytes.Clone(e.Data), nil
}

// containerRef names one container of one shard: the restore window's
// read unit.
type containerRef struct {
	shard int
	id    int
}

// locate resolves a fingerprint to its container and location. The
// location is stable until a GC pass moves survivors. A non-nil error
// means the index could not answer (a corrupt run block); degraded
// restore treats it as a missing chunk, strict restore surfaces it.
func (s *Store) locate(fp fphash.Fingerprint) (containerRef, container.Location, bool, error) {
	si := fp.Shard(len(s.shards))
	sh := s.shards[si]
	sh.mu.Lock()
	loc, ok, err := sh.index.Lookup(fp)
	sh.mu.Unlock()
	if err != nil {
		return containerRef{}, container.Location{}, false, fmt.Errorf("dedup: index lookup %v: %w", fp, err)
	}
	if !ok {
		return containerRef{}, container.Location{}, false, nil
	}
	return containerRef{shard: si, id: loc.Container}, loc, true, nil
}

// readContainer fetches one container's entries for a restore into a
// buffer from the buffer pool, which it returns, on error too, for the
// caller to put back: the entries' Data are views of it, valid until then.
// The open container's bytes are copied into it under the shard lock,
// since its seal recycles them; sealed containers are immutable and read
// from the backend outside it (backends are safe for concurrent use), so
// container reads on different shards — and, for MemBackend, on the same
// shard — overlap. A concurrent GC can move chunks between a locate and
// this read; restore verifies each entry's fingerprint and falls back to
// Get on a mismatch.
func (s *Store) readContainer(ref containerRef) ([]container.Entry, []byte, error) {
	sh := s.shards[ref.shard]
	sh.mu.Lock()
	if cur := sh.containers.Current(); cur != nil && cur.ID == ref.id {
		buf := bufpool.Get(max(cur.Bytes, s.containerBytes))[:0]
		for _, e := range cur.Entries {
			buf = append(buf, e.Data...)
		}
		entries := append([]container.Entry(nil), cur.Entries...)
		sh.mu.Unlock()
		b := buf
		for i := range entries {
			n := len(entries[i].Data)
			entries[i].Data, b = b[:n:n], b[n:]
		}
		return entries, buf, nil
	}
	sh.mu.Unlock()
	var buf []byte
	c, err := s.backend.Load(ref.shard, ref.id, &buf)
	if err != nil {
		return nil, buf, err
	}
	return c.Entries, buf, nil
}

// Stats reports deduplication effectiveness of everything stored so far,
// aggregated across shards. Each shard is locked in turn, so the totals
// are a consistent per-shard snapshot (concurrent Puts may land between
// shard reads, as with any aggregate over a live store).
func (s *Store) Stats() trace.DedupStats {
	var st trace.DedupStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.LogicalBytes += sh.logicalBytes
		st.PhysicalBytes += sh.physicalBytes
		st.LogicalChunks += sh.logicalChunks
		st.UniqueChunks += sh.index.Count()
		sh.mu.Unlock()
	}
	c := s.index.Counters()
	st.IndexBloomNegative = c.BloomNegative
	st.IndexMemtableHits = c.MemtableHits
	st.IndexBlockCacheHits = c.BlockCacheHits
	st.IndexDiskProbes = c.DiskProbes
	return st
}

// UniqueChunks returns the number of distinct ciphertext chunks stored.
func (s *Store) UniqueChunks() int {
	var n int
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.index.Count()
		sh.mu.Unlock()
	}
	return n
}

// ContainerCount returns the number of containers across all shards,
// including in-progress ones.
func (s *Store) ContainerCount() int {
	var n int
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.containers.Count()
		sh.mu.Unlock()
	}
	return n
}

// lockAll acquires every shard lock in index order (the global lock order;
// GC and other whole-store operations use it to get a consistent view).
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

// unlockAll releases every shard lock.
func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}
