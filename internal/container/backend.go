package container

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned when a location or container does not exist.
var ErrNotFound = errors.New("container: not found")

// Backend is pluggable persistent storage for sealed containers. A Store
// packs chunks into its one open container in memory and hands each
// container to the backend the moment it seals; the backend is the
// durability boundary — a sealed container survives whatever the backend
// survives (process restarts for FileBackend, nothing for MemBackend).
//
// Per shard, containers are sealed in strictly increasing, dense ID order
// (0, 1, 2, ...); Rewrite renumbers them densely again. Entries handed to
// Seal and Rewrite are immutable from that point on, and every entry
// satisfies len(Entry.Data) == Entry.Size.
//
// Implementations must be safe for concurrent use across shards and for
// concurrent Load/Scan with Seal on the same shard (restores read sealed
// containers while backups append).
type Backend interface {
	// Seal persists a freshly sealed container for a shard. The container's
	// ID must be exactly the number of containers already sealed for that
	// shard. When Seal returns nil the container is durable. A seal
	// touches one shard; a pass sealing many shards at once goes through
	// BatchSealer where the backend offers it.
	Seal(shard int, c *Container) error

	// Load reads a sealed container, data included. It returns ErrNotFound
	// for an ID that was never sealed.
	Load(shard, id int) (*Container, error)

	// Scan calls fn for every sealed container of a shard in ID order.
	// With withData false the backend may leave Entry.Data nil (FP and
	// Size are always populated); fn must not retain the container past
	// the call. A non-nil error from fn aborts the scan and is returned.
	Scan(shard int, withData bool, fn func(*Container) error) error

	// Rewrite atomically replaces a shard's entire sealed-container
	// sequence with cs (the GC sweep's compacted survivors, densely
	// renumbered from 0). On error the previous sequence is still intact.
	Rewrite(shard int, cs []*Container) error

	// Shards returns the shard count the backend was created with.
	Shards() int

	// Close releases backend resources. The backend must not be used
	// afterwards.
	Close() error
}

// BatchSealer is the optional backend capability of sealing one
// container on each of many shards in one pass, so the pass can overlap
// what one Seal per shard would do in turn. cs is indexed by shard (nil:
// nothing to seal there), and errs[i] is nil exactly when cs[i] is nil or
// now durable; a shard that failed, or that the pass did not reach after
// an earlier failure, keeps its container unsealed. FileBackend
// implements it; FlushAll falls back to Seal per shard.
type BatchSealer interface {
	SealAll(cs []*Container) (errs []error)
}

// SealedStater is the optional backend capability of reporting a shard's
// sealed-container count and total data bytes without a metadata scan.
// It is what makes a persistent-index store open in O(metadata): the
// packer recovers its counters from here instead of re-reading every
// record's index header. FileBackend implements it.
type SealedStater interface {
	SealedStats(shard int) (containers int, bytes int64, err error)
}

// RangeScanner is the optional backend capability of scanning a suffix of
// a shard's sealed containers. The fingerprint index uses it to rescan
// only the containers past its durable watermark on open.
type RangeScanner interface {
	ScanFrom(shard, from int, withData bool, fn func(*Container) error) error
}

// ScanFrom visits the shard's sealed containers with ID >= from in ID
// order, using the backend's RangeScanner when implemented (FileBackend)
// and falling back to a full Scan that skips earlier containers otherwise
// (MemBackend, which has nothing to seek past).
func ScanFrom(b Backend, shard, from int, withData bool, fn func(*Container) error) error {
	if rs, ok := b.(RangeScanner); ok {
		return rs.ScanFrom(shard, from, withData, fn)
	}
	return b.Scan(shard, withData, func(c *Container) error {
		if c.ID < from {
			return nil
		}
		return fn(c)
	})
}

// TolerantScanner is the optional backend capability behind repair: a
// per-slot scan that surfaces damaged containers as per-slot errors
// instead of aborting. FileBackend implements it; for backends that do
// not, ScanShardTolerant falls back to per-container Loads.
//
// Unlike Backend.Scan, containers handed to fn are the callback's to
// keep (implementations allocate fresh records) — but fn itself may run
// under backend locks, so it must not call back into the backend.
type TolerantScanner interface {
	ScanTolerant(shard int, fn func(id int, c *Container, err error) error) error
}

// Quarantiner is the optional backend capability of preserving a damaged
// container's raw bytes for forensics before repair drops it.
// FileBackend implements it.
type Quarantiner interface {
	Quarantine(shard, id int) (path string, err error)
}

// ScanShardTolerant visits every container slot of a shard, reporting
// damaged slots through fn(id, nil, err) rather than aborting — the scan
// behind repair. It uses the backend's TolerantScanner when implemented
// and falls back to Load-by-ID otherwise (one call per container until
// ErrNotFound). A non-nil error from fn aborts the scan.
func ScanShardTolerant(b Backend, shard int, fn func(id int, c *Container, err error) error) error {
	if ts, ok := b.(TolerantScanner); ok {
		return ts.ScanTolerant(shard, fn)
	}
	for id := 0; ; id++ {
		c, err := b.Load(shard, id)
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		if err != nil {
			c = nil
		}
		if ferr := fn(id, c, err); ferr != nil {
			return ferr
		}
	}
}

// MemBackend keeps sealed containers in memory, behind the Backend
// interface: the backend of in-memory test stores (dedup.NewStore and
// friends) and of the benchmark's stage replay. Its only errors are
// contract violations (a Seal or Rewrite out of ID order).
type MemBackend struct {
	mu     sync.RWMutex
	shards [][]*Container
}

// NewMemBackend returns an in-memory backend for the given shard count.
func NewMemBackend(shards int) *MemBackend {
	if shards < 1 {
		panic(fmt.Sprintf("container: backend shard count must be positive, got %d", shards))
	}
	return &MemBackend{shards: make([][]*Container, shards)}
}

func (b *MemBackend) checkShard(shard int) {
	if shard < 0 || shard >= len(b.shards) {
		panic(fmt.Sprintf("container: shard %d out of range [0, %d)", shard, len(b.shards)))
	}
}

// Seal appends the sealed container to the shard's in-memory sequence.
func (b *MemBackend) Seal(shard int, c *Container) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checkShard(shard)
	if c.ID != len(b.shards[shard]) {
		return fmt.Errorf("container: seal of container %d on shard %d, want %d",
			c.ID, shard, len(b.shards[shard]))
	}
	b.shards[shard] = append(b.shards[shard], c)
	return nil
}

// Load returns the sealed container; the caller must not mutate it.
func (b *MemBackend) Load(shard, id int) (*Container, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.checkShard(shard)
	if id < 0 || id >= len(b.shards[shard]) {
		return nil, ErrNotFound
	}
	return b.shards[shard][id], nil
}

// Scan visits the shard's sealed containers in ID order. Data is always
// populated (there is no cheaper metadata-only representation in memory).
func (b *MemBackend) Scan(shard int, withData bool, fn func(*Container) error) error {
	b.mu.RLock()
	b.checkShard(shard)
	cs := b.shards[shard]
	b.mu.RUnlock()
	for _, c := range cs {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Rewrite replaces the shard's sealed sequence.
func (b *MemBackend) Rewrite(shard int, cs []*Container) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checkShard(shard)
	for i, c := range cs {
		if c.ID != i {
			return fmt.Errorf("container: rewrite container ID %d at position %d", c.ID, i)
		}
	}
	b.shards[shard] = cs
	return nil
}

// Shards returns the shard count.
func (b *MemBackend) Shards() int { return len(b.shards) }

// Close is a no-op.
func (b *MemBackend) Close() error { return nil }
