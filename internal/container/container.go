package container

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"freqdedup/internal/fphash"
)

// DefaultBytes is the paper's container size (4 MB).
const DefaultBytes = 4 << 20

// Entry is one chunk stored in a container: its fingerprint, its size and
// its Size bytes of data.
type Entry struct {
	FP   fphash.Fingerprint
	Size uint32
	Data []byte
}

// Location addresses a stored chunk.
type Location struct {
	Container int // container ID
	Index     int // entry index within the container
}

// Container is one sealed or in-progress container.
type Container struct {
	ID      int
	Entries []Entry
	Bytes   int
}

// Store accumulates chunks into fixed-capacity containers. The one open
// (in-progress) container lives in memory; the moment a container seals it
// is handed to the Backend, which owns sealed-container storage — in
// files (FileBackend) or in memory (MemBackend). The zero value is not
// usable; construct with NewWithBackend.
//
// A Store is not safe for concurrent use: it is a single packer with one
// open container, and callers own its locking. The sharded dedup store
// runs one Store per shard behind the shard lock, which keeps packing
// append-safe under concurrent writers without a lock here on every
// Append. (Backends are safe for concurrent use; reads of sealed
// containers may bypass the packer's lock.)
//
// Append copies each chunk into the open container's memory. On a
// FileBackend that memory is an arena of pooled blocks, recycled once the
// container is durably sealed, so its Data slices are views that are
// valid only while the caller holds the Store's lock and the container is
// open: whoever hands open-container bytes past that lock copies them
// first (see Current).
type Store struct {
	capacity    int
	backend     Backend
	shard       int
	sealed      int // sealed containers so far; also the next container ID
	sealedBytes int
	current     *Container
	arena       arena // the open container's chunk bytes
}

// NewWithBackend returns a store packing shard's containers through the
// given backend. If the backend already holds sealed containers for the
// shard (a reopened FileBackend), packing resumes after them: the store
// scans their metadata (one pass, without chunk data) to restore its
// container count and byte totals, and new containers are numbered after
// the existing ones. visit, if non-nil, is called for each pre-existing
// container during that same scan, so callers rebuilding their own state
// (the dedup store's fingerprint index) do not pay a second metadata
// pass; a non-nil error from visit aborts construction.
func NewWithBackend(capacity int, b Backend, shard int, visit func(*Container) error) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("container: capacity must be positive, got %d", capacity)
	}
	if shard < 0 || shard >= b.Shards() {
		return nil, fmt.Errorf("container: shard %d out of range [0, %d)", shard, b.Shards())
	}
	s := &Store{capacity: capacity, backend: b, shard: shard}
	// A FileBackend keeps nothing of a sealed container (its seal frames
	// the chunks into a record buffer of its own), so the open container's
	// bytes can be recycled after each seal. A MemBackend keeps the
	// containers it seals, so each chunk gets a buffer of its own.
	if _, ok := b.(*FileBackend); ok {
		s.arena = newArena(capacity)
	}
	// With no visitor to feed, a backend that can report its sealed totals
	// directly (SealedStater) spares the whole metadata scan — the fast
	// path behind O(metadata) repository opens.
	if visit == nil {
		if ss, ok := b.(SealedStater); ok {
			sealed, bytes, err := ss.SealedStats(shard)
			if err != nil {
				return nil, err
			}
			s.sealed = sealed
			s.sealedBytes = int(bytes)
			return s, nil
		}
	}
	err := b.Scan(shard, false, func(c *Container) error {
		s.sealed++
		s.sealedBytes += c.Bytes
		if visit != nil {
			return visit(c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Backend returns the store's backend.
func (s *Store) Backend() Backend { return s.backend }

// Append adds a copy of a chunk to the current container, sealing it
// through the backend first if the chunk would not fit; the caller keeps
// e.Data. It returns the chunk's location. The returned location is
// stable until the next Compact. On a backend seal error nothing is
// appended and the sealed-but-unwritten container stays current, so the
// store remains consistent.
func (s *Store) Append(e Entry) (Location, error) {
	if s.current == nil {
		s.current = &Container{ID: s.sealed}
	}
	if s.current.Bytes > 0 && s.current.Bytes+int(e.Size) > s.capacity {
		if _, err := s.Flush(); err != nil {
			return Location{}, err
		}
		s.current = &Container{ID: s.sealed}
	}
	loc := Location{Container: s.current.ID, Index: len(s.current.Entries)}
	e.Data = s.arena.copy(e.Data)
	s.current.Entries = append(s.current.Entries, e)
	s.current.Bytes += int(e.Size)
	return loc, nil
}

// Flush seals the current container, if any, persisting it through the
// backend. It returns the sealed container, or nil if the current
// container is empty; on a FileBackend the container's Data were recycled
// with the seal, so only its metadata may be read. When Flush returns a
// nil error the container is as durable as the backend makes it
// (FileBackend: fsynced to disk).
func (s *Store) Flush() (*Container, error) {
	if s.current == nil || len(s.current.Entries) == 0 {
		return nil, nil
	}
	c := s.current
	if err := s.backend.Seal(s.shard, c); err != nil {
		return nil, err
	}
	s.sealedCurrent()
	return c, nil
}

// sealedCurrent records that the backend sealed the current container,
// whose bytes the arena then recycles. Only a successful seal gets here: a
// failed one keeps the container open, its bytes with it.
func (s *Store) sealedCurrent() {
	s.sealed++
	s.sealedBytes += s.current.Bytes
	s.current = nil
	s.arena.release()
}

// FlushAll is Flush on every store of ss, which pack distinct shards of
// one backend; the caller holds every store's lock. A BatchSealer backend
// seals the open containers in one pass (FileBackend: written in shard
// order, fsyncs overlapped); any other backend seals them one by one in
// ss order, stopping at the first failure. FlushAll returns the lowest
// failing shard and its error, or -1 and nil. A store whose container
// was not sealed keeps it open, as after a failed Flush.
func FlushAll(ss []*Store) (shard int, err error) {
	if len(ss) == 0 {
		return -1, nil
	}
	b := ss[0].backend
	bs, ok := b.(BatchSealer)
	if !ok {
		for _, s := range ss {
			if _, err := s.Flush(); err != nil {
				return s.shard, err
			}
		}
		return -1, nil
	}
	cs := make([]*Container, b.Shards())
	for _, s := range ss {
		if s.current != nil && len(s.current.Entries) > 0 {
			cs[s.shard] = s.current
		}
	}
	errs := bs.SealAll(cs)
	shard = -1
	for _, s := range ss {
		switch {
		case cs[s.shard] == nil:
		case errs[s.shard] == nil:
			s.sealedCurrent()
		case shard < 0 || s.shard < shard:
			shard, err = s.shard, errs[s.shard]
		}
	}
	return shard, err
}

// Get returns the entry at loc, reading sealed containers through the
// backend. It returns ErrNotFound if the location does not exist and
// ErrCorrupt (wrapped) if the backend cannot validate the container.
func (s *Store) Get(loc Location) (Entry, error) {
	c, err := s.Container(loc.Container)
	if err != nil {
		return Entry{}, err
	}
	if loc.Index < 0 || loc.Index >= len(c.Entries) {
		return Entry{}, ErrNotFound
	}
	return c.Entries[loc.Index], nil
}

// Container returns the container with the given ID: the in-progress one
// from memory, sealed ones through the backend. The returned container
// must not be mutated.
func (s *Store) Container(id int) (*Container, error) {
	if s.current != nil && s.current.ID == id {
		return s.current, nil
	}
	if id < 0 || id >= s.sealed {
		return nil, ErrNotFound
	}
	return s.backend.Load(s.shard, id, nil)
}

// Current returns the in-progress container, or nil if none is open. The
// caller must hold whatever lock guards the Store and must not mutate the
// container. Its Data slices are views of the Store's arena, which the
// next seal recycles: they must not be read once the lock is released, so
// a caller that hands chunk bytes past the lock (the sharded dedup store's
// Get and restore reads) copies them first. Get and Container return the
// same views for the open container.
func (s *Store) Current() *Container { return s.current }

// Sealed returns the number of sealed (durable) containers — also the
// next container ID. The fingerprint index flushes against this count:
// only postings in containers below it are written to runs.
func (s *Store) Sealed() int { return s.sealed }

// Count returns the number of containers, including a non-empty
// in-progress one.
func (s *Store) Count() int {
	n := s.sealed
	if s.current != nil && len(s.current.Entries) > 0 {
		n++
	}
	return n
}

// Bytes returns the total stored bytes across all containers.
func (s *Store) Bytes() int {
	n := s.sealedBytes
	if s.current != nil {
		n += s.current.Bytes
	}
	return n
}

// CompactStats reports what a Compact pass dropped.
type CompactStats struct {
	// EntriesDropped is the number of entries keep rejected.
	EntriesDropped int
	// BytesDropped is their total size.
	BytesDropped uint64
	// ContainersRewritten is the number of pre-compaction containers that
	// contained at least one dropped entry.
	ContainersRewritten int
}

// RepairStats reports what a shard repair dropped and preserved.
type RepairStats struct {
	// ContainersQuarantined is the number of unreadable containers
	// (structural damage or checksum failure) dropped by the repair.
	ContainersQuarantined int
	// EntriesLost counts chunks lost: every entry of a quarantined
	// container, plus readable entries whose content no longer matches
	// their recorded fingerprint.
	EntriesLost int
	// BytesLost is the total size of the lost entries that repair could
	// still measure (entries of structurally unreadable containers are
	// unknowable and not counted here).
	BytesLost uint64
	// QuarantinePaths lists where damaged containers' raw bytes were
	// preserved, when the backend supports quarantine.
	QuarantinePaths []string
}

// Repair rewrites the shard keeping every entry that can still be
// trusted: containers that fail to read (checksum or structural damage)
// are quarantined — their raw bytes preserved through the backend's
// Quarantiner capability when present, or the repair fails before it
// rewrites anything — and dropped; readable entries
// whose content hash no longer equals their recorded fingerprint are
// dropped individually (in-flight corruption that a CRC computed after
// the fact cannot catch). Survivors are repacked densely and renumbered
// from zero, like Compact, and the open container's entries ride along.
// On a FileBackend opened in salvage mode, the rewrite produces a clean
// file and lifts the shard's ErrSalvaged condition.
//
// moved is called with every surviving entry and its post-repair
// location; callers rebuild their fingerprint indexes from it. Like
// Compact's moved, its effects must be applied only after a nil return.
func (s *Store) Repair(moved func(Entry, Location)) (RepairStats, error) {
	var st RepairStats
	var newSealed []*Container
	var cur *Container
	newBytes := 0
	place := func(e Entry) {
		if cur == nil {
			cur = &Container{ID: len(newSealed)}
		}
		if cur.Bytes > 0 && cur.Bytes+int(e.Size) > s.capacity {
			newBytes += cur.Bytes
			newSealed = append(newSealed, cur)
			cur = &Container{ID: len(newSealed)}
		}
		loc := Location{Container: cur.ID, Index: len(cur.Entries)}
		cur.Entries = append(cur.Entries, e)
		cur.Bytes += int(e.Size)
		if moved != nil {
			moved(e, loc)
		}
	}
	visit := func(c *Container) {
		for _, e := range c.Entries {
			if fphash.FromBytes(e.Data) != e.FP {
				st.EntriesLost++
				st.BytesLost += uint64(e.Size)
				continue
			}
			place(e)
		}
	}
	// Collect first, act after: the tolerant scan may hold backend locks
	// while fn runs (FileBackend's does), so quarantining and metadata
	// recounts — backend calls themselves — must wait until the scan has
	// returned. Survivor containers are safely retained: tolerant scans
	// hand out freshly allocated records (see TolerantScanner).
	var survivors []*Container
	var damaged []int
	err := ScanShardTolerant(s.backend, s.shard, func(id int, c *Container, err error) error {
		if err != nil {
			damaged = append(damaged, id)
			return nil
		}
		survivors = append(survivors, c)
		return nil
	})
	if err != nil {
		return RepairStats{}, err
	}
	// Quarantine before the rewrite below replaces the shard file — the
	// damaged records' raw bytes only exist until then, so a record that
	// cannot be preserved fails the repair with the shard untouched.
	for _, id := range damaged {
		st.ContainersQuarantined++
		if q, ok := s.backend.(Quarantiner); ok {
			path, err := q.Quarantine(s.shard, id)
			if err != nil {
				return RepairStats{}, fmt.Errorf("container: quarantine container %d of shard %d: %w", id, s.shard, err)
			}
			st.QuarantinePaths = append(st.QuarantinePaths, path)
		}
		// The container's entry metadata may still be readable even
		// though its data region is corrupt; count what can be counted
		// for the report.
		if mc, merr := s.loadMeta(id); merr == nil {
			st.EntriesLost += len(mc.Entries)
			st.BytesLost += uint64(mc.Bytes)
		}
	}
	for _, c := range survivors {
		visit(c)
	}
	// As in Compact: survivors of sealed containers stay sealed, so the
	// repair's rewrite never demotes durable chunks to volatile memory.
	if cur != nil {
		newBytes += cur.Bytes
		newSealed = append(newSealed, cur)
		cur = nil
	}
	if s.current != nil {
		visit(s.current)
	}
	if err := s.backend.Rewrite(s.shard, newSealed); err != nil {
		return RepairStats{}, err
	}
	s.sealed = len(newSealed)
	s.sealedBytes = newBytes
	s.reopen(cur)
	return st, nil
}

// loadMeta reads one container's entry metadata without trusting its
// data, for accounting over damaged containers. Only backends whose Scan
// supports a metadata-only pass can serve it cheaply; errors just mean
// the report under-counts.
func (s *Store) loadMeta(id int) (*Container, error) {
	var out *Container
	stop := errors.New("stop")
	err := s.backend.Scan(s.shard, false, func(c *Container) error {
		if c.ID == id {
			out = &Container{ID: c.ID, Entries: append([]Entry(nil), c.Entries...), Bytes: c.Bytes}
			return stop
		}
		return nil
	})
	if out != nil {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	return nil, ErrNotFound
}

// Compact rewrites the store keeping only entries for which keep returns
// true, repacking survivors densely in their existing order and
// renumbering containers from zero — the GC sweep's storage rewrite. The
// new sealed sequence replaces the old one atomically in the backend
// (FileBackend: a fresh file renamed over the old).
//
// Durability is preserved, not just data: every survivor from a sealed
// container lands in the new sealed sequence — the trailing partial
// container is sealed rather than reopened in memory, because its chunks
// were already durable and a crash between the rewrite and the next
// flush must not lose them (the crash-point explorer's GC window).
// Survivors from the old open container were never durable and stay in
// the new open container.
//
// moved, if non-nil, is called with every surviving entry and its
// post-compaction location, in the new layout order. It may have been
// called even if Compact returns an error; callers must apply its effects
// only after a nil return. On error the store and backend are unchanged.
func (s *Store) Compact(keep func(Entry) bool, moved func(Entry, Location)) (CompactStats, error) {
	var st CompactStats
	var newSealed []*Container
	var cur *Container
	newBytes := 0
	place := func(e Entry) {
		if cur == nil {
			cur = &Container{ID: len(newSealed)}
		}
		if cur.Bytes > 0 && cur.Bytes+int(e.Size) > s.capacity {
			newBytes += cur.Bytes
			newSealed = append(newSealed, cur)
			cur = &Container{ID: len(newSealed)}
		}
		loc := Location{Container: cur.ID, Index: len(cur.Entries)}
		cur.Entries = append(cur.Entries, e)
		cur.Bytes += int(e.Size)
		if moved != nil {
			moved(e, loc)
		}
	}
	visit := func(c *Container) error {
		dropped := false
		for _, e := range c.Entries {
			if keep(e) {
				place(e)
			} else {
				st.EntriesDropped++
				st.BytesDropped += uint64(e.Size)
				dropped = true
			}
		}
		if dropped {
			st.ContainersRewritten++
		}
		return nil
	}
	if err := s.backend.Scan(s.shard, true, visit); err != nil {
		return CompactStats{}, err
	}
	// Seal the trailing partial container: its entries were durable
	// before the compaction and must be durable after it.
	if cur != nil {
		newBytes += cur.Bytes
		newSealed = append(newSealed, cur)
		cur = nil
	}
	if s.current != nil {
		_ = visit(s.current)
	}
	if err := s.backend.Rewrite(s.shard, newSealed); err != nil {
		return CompactStats{}, err
	}
	s.sealed = len(newSealed)
	s.sealedBytes = newBytes
	s.reopen(cur)
	return st, nil
}

// reopen makes cur, the survivors of the old open container after a
// rewrite, the open container. Their Data are still views of the arena,
// which keeps its blocks while cur holds any of them.
func (s *Store) reopen(cur *Container) {
	s.current = cur
	if cur == nil {
		s.arena.release()
	}
}

// arenaBlockBytes is the size of the blocks an arena grows by: small
// enough that the arena's residency tracks the bytes its container holds,
// large enough that a block holds dozens of chunks.
const (
	arenaBlockShift = 18
	arenaBlockBytes = 1 << arenaBlockShift
)

// arenaPools recycles arena blocks across every Store, one pool per
// power-of-two block size (arenaBlockBytes, or a smaller capacity's
// power-of-two ceiling). Blocks are boxed (*[]byte) once, at allocation,
// so recycling them allocates nothing.
var arenaPools [arenaBlockShift + 1]sync.Pool

// arena holds the open container's chunk bytes. It grows in blocks from
// arenaPools, copying each chunk into the last block, and a chunk larger
// than a block gets a buffer of its own. release returns every block to
// the pool at once, so it may be called only when no view of them is left:
// after the container's durable seal. The zero arena (a MemBackend's)
// gives every chunk a buffer of its own and recycles nothing.
type arena struct {
	pool   *sync.Pool // nil: no recycling
	block  int        // block size
	blocks []*[]byte  // blocks held; the last one is being filled
	used   int        // bytes used of the last block
}

func newArena(capacity int) arena {
	block := arenaBlockBytes
	if capacity < block {
		block = 1 << bits.Len(uint(capacity-1))
	}
	return arena{pool: &arenaPools[bits.Len(uint(block))-1], block: block}
}

// copy returns a copy of p in arena memory (never nil).
func (a *arena) copy(p []byte) []byte {
	n := len(p)
	if a.pool == nil || n > a.block {
		return append(make([]byte, 0, n), p...)
	}
	if len(a.blocks) == 0 || a.used+n > a.block {
		bp, _ := a.pool.Get().(*[]byte)
		if bp == nil {
			b := make([]byte, a.block)
			bp = &b
		}
		a.blocks = append(a.blocks, bp)
		a.used = 0
	}
	b := (*a.blocks[len(a.blocks)-1])[a.used : a.used+n : a.used+n]
	copy(b, p)
	a.used += n
	return b
}

// release returns every block to the pool.
func (a *arena) release() {
	if a.pool == nil {
		return
	}
	for i, bp := range a.blocks {
		a.pool.Put(bp)
		a.blocks[i] = nil
	}
	a.blocks, a.used = a.blocks[:0], 0
}
