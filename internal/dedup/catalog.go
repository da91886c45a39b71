package dedup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"freqdedup/internal/reclog"
	"freqdedup/internal/vfs"
)

// The snapshot catalog: the durable record of which snapshots a repository
// holds, kept beside the container shard files. Without it, retention
// state lives only in process memory and a reopened store treats every
// chunk as unreferenced — the "GC after reopen reclaims everything"
// failure the Repository front door exists to fix.
//
// The catalog is a record log (internal/reclog): a 16-byte file header,
// then one CRC-framed record per mutation — a snapshot added (with its
// sealed recipe and summary metadata) or a snapshot deleted (a
// tombstone) — fsynced before the mutation is acknowledged. Reopening
// replays the log; a record torn by a mid-append crash is truncated
// away, so the replayed state is exactly the set of acknowledged
// mutations. When tombstones accumulate, the catalog is compacted: the
// live records are written to a fresh file that is fsynced and
// atomically renamed over the old one.

// CatalogName is the catalog's file name within a repository directory.
const CatalogName = "catalog.fdr"

// ErrCatalogCorrupt is returned when the catalog file fails structural
// validation or a non-tail record fails its checksum.
var ErrCatalogCorrupt = errors.New("dedup: snapshot catalog corrupt")

// ErrSnapshotExists is returned when adding a snapshot name that is
// already live in the catalog.
var ErrSnapshotExists = errors.New("dedup: snapshot already exists")

// ErrSnapshotNotFound is returned for operations on a snapshot name the
// catalog does not hold.
var ErrSnapshotNotFound = errors.New("dedup: snapshot not found")

// Catalog on-disk layout constants.
const (
	catMagic    = 0x46445243 // "FDRC": freqdedup recipe catalog
	catVersion  = 1
	catRecMagic = 0x46445231 // "FDR1": one catalog record

	catKindAdd    = 1
	catKindDelete = 2

	// catMetaLen is the fixed metadata prefix of an add record's payload:
	// created-at (unix seconds, i64), logical bytes (u64), chunk count
	// (u32), reserved (u32); the sealed recipe follows.
	catMetaLen = 24

	// catMaxName and catMaxPayload bound record fields during replay:
	// lengths beyond them cannot come from a well-formed writer and are
	// treated as structural corruption rather than attempted allocations.
	catMaxName    = 4 << 10
	catMaxPayload = 1 << 30
)

// SnapshotRecord is one live snapshot in the catalog: the sealed recipe
// that restores it plus the summary metadata a listing needs without
// unsealing anything.
type SnapshotRecord struct {
	// Name is the caller-chosen snapshot name, unique among live
	// snapshots.
	Name string
	// CreatedUnix is the snapshot's creation time in Unix seconds.
	CreatedUnix int64
	// LogicalBytes is the snapshot's pre-dedup size.
	LogicalBytes uint64
	// Chunks is the snapshot's logical chunk count.
	Chunks uint32
	// SealedRecipe is the recipe sealed under the repository key
	// (mle.Recipe.Seal); the catalog never sees plaintext keys.
	SealedRecipe []byte
}

// Catalog is a durable snapshot catalog. The zero value is not usable;
// construct with CreateCatalogFS or OpenCatalogFS. A Catalog is safe for
// concurrent use.
type Catalog struct {
	mu         sync.Mutex // ordered before the log's own locks
	log        *reclog.Log
	path       string
	closed     bool
	live       map[string]SnapshotRecord
	tombstones int // delete records in the file not yet compacted away
	salvage    CatalogSalvageStats
}

// catFormat frames catalog records: a is the name length, b the payload
// length, and the body is the name followed by the payload.
var catFormat = &reclog.Format{
	Name:     "dedup: catalog",
	Magic:    catMagic,
	Version:  catVersion,
	RecMagic: catRecMagic,
	BodyLen: func(nameLen, payloadLen uint32) (int64, bool) {
		ok := nameLen != 0 && nameLen <= catMaxName && payloadLen <= catMaxPayload
		return int64(nameLen) + int64(payloadLen), ok
	},
	Corrupt: ErrCatalogCorrupt,
}

// CreateCatalogFS initializes a new, empty catalog file on fsys. It fails
// if the file already exists.
func CreateCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	log, err := reclog.Create(fsys, path, catFormat)
	if err != nil {
		return nil, err
	}
	return &Catalog{log: log, path: path, live: make(map[string]SnapshotRecord)}, nil
}

// OpenCatalogFS opens an existing catalog file on fsys and replays its
// records. A record torn by a mid-append crash — an incomplete tail, or a
// final record whose checksum fails — is discarded by truncating the file
// back to the last acknowledged record. Damage anywhere else, including
// a record that only looks torn because a valid one follows it, returns
// ErrCatalogCorrupt and leaves the file unchanged.
func OpenCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	c, _, err := openCatalog(fsys, path, reclog.Owner)
	return c, err
}

// CatalogSalvageStats reports what a salvage open of the catalog dropped.
type CatalogSalvageStats struct {
	// RecordsDropped counts mid-file records skipped because their
	// checksum failed or their structure could not be parsed.
	RecordsDropped int
	// BytesSkipped is the total size of the skipped regions.
	BytesSkipped int64
}

// Damaged reports whether the salvage pass had to drop anything.
func (s CatalogSalvageStats) Damaged() bool {
	return s.RecordsDropped > 0 || s.BytesSkipped > 0
}

// OpenCatalogSalvage opens a catalog whose file may be damaged mid-file —
// the fsck path for catalogs OpenCatalogFS rejects with ErrCatalogCorrupt.
// Unparseable or checksum-failing records are skipped (the replay
// re-synchronizes on the next record whose header parses and whose CRC
// verifies); a tombstone for a snapshot whose add record was lost is
// ignored rather than fatal. If anything was dropped the catalog is
// immediately compacted, so the on-disk file is clean again and appends
// are safe.
func OpenCatalogSalvage(fsys vfs.FS, path string) (*Catalog, CatalogSalvageStats, error) {
	c, st, err := openCatalog(fsys, path, reclog.Salvage)
	if err != nil {
		return nil, st, err
	}
	if st.Damaged() {
		if err := c.compactLocked(); err != nil {
			c.log.Close()
			return nil, st, fmt.Errorf("dedup: rewrite salvaged catalog: %w", err)
		}
	}
	return c, st, nil
}

func openCatalog(fsys vfs.FS, path string, mode reclog.Mode) (*Catalog, CatalogSalvageStats, error) {
	c := &Catalog{path: path, live: make(map[string]SnapshotRecord)}
	log, st, err := reclog.Open(fsys, path, catFormat, mode, func(r reclog.Record) error {
		return c.apply(r, mode == reclog.Salvage)
	})
	c.salvage.RecordsDropped += st.RecordsDropped
	c.salvage.BytesSkipped += st.BytesSkipped
	if err != nil {
		return nil, c.salvage, err
	}
	c.log = log
	return c, c.salvage, nil
}

// apply replays one record into the live-snapshot map. In salvage mode
// a record that makes no sense is dropped and counted instead of failing
// the open.
func (c *Catalog) apply(r reclog.Record, salvage bool) error {
	name := string(r.Body[:r.A])
	payload := r.Body[r.A:]
	corrupt := func(format string, args ...any) error {
		if salvage {
			c.salvage.RecordsDropped++
			return nil
		}
		return fmt.Errorf("%w: %s: "+format, append([]any{ErrCatalogCorrupt, c.path}, args...)...)
	}
	switch r.Kind {
	case catKindAdd:
		if len(payload) < catMetaLen {
			return corrupt("add record for %q has a short payload", name)
		}
		if _, ok := c.live[name]; ok {
			// In salvage mode a duplicate add means the tombstone between
			// the two was lost to damage: the later record is the
			// acknowledged state, so it replaces the earlier one.
			if err := corrupt("duplicate add for live snapshot %q", name); err != nil {
				return err
			}
		}
		c.live[name] = SnapshotRecord{
			Name:         name,
			CreatedUnix:  int64(binary.LittleEndian.Uint64(payload[0:])),
			LogicalBytes: binary.LittleEndian.Uint64(payload[8:]),
			Chunks:       binary.LittleEndian.Uint32(payload[16:]),
			SealedRecipe: append([]byte(nil), payload[catMetaLen:]...),
		}
	case catKindDelete:
		if _, ok := c.live[name]; !ok {
			if salvage {
				// The add this tombstone pairs with was lost; the skip
				// was already counted when it was dropped.
				return nil
			}
			return corrupt("tombstone for unknown snapshot %q", name)
		}
		delete(c.live, name)
		c.tombstones++
	default:
		return corrupt("unknown record kind %d at offset %d", r.Kind, r.Off)
	}
	return nil
}

// encodeMeta packs an add record's fixed metadata prefix.
func encodeMeta(rec SnapshotRecord) []byte {
	var meta [catMetaLen]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(rec.CreatedUnix))
	binary.LittleEndian.PutUint64(meta[8:], rec.LogicalBytes)
	binary.LittleEndian.PutUint32(meta[16:], rec.Chunks)
	return meta[:]
}

// Add records a new snapshot. When Add returns nil the snapshot is as
// durable as the catalog: for a file-backed catalog a sync covering the
// record has returned before Add does. Concurrent Adds share fsyncs via
// group commit — the mutation is applied tentatively under the lock, the
// commit runs with the lock released, and a failed commit rolls the
// mutation back.
func (c *Catalog) Add(rec SnapshotRecord) error {
	if rec.Name == "" {
		return errors.New("dedup: empty snapshot name")
	}
	if len(rec.Name) > catMaxName {
		return fmt.Errorf("dedup: snapshot name longer than %d bytes", catMaxName)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dedup: catalog is closed")
	}
	if _, ok := c.live[rec.Name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSnapshotExists, rec.Name)
	}
	stored := rec
	stored.SealedRecipe = append([]byte(nil), rec.SealedRecipe...)
	_, seq, err := c.log.Append(true, catKindAdd, uint32(len(rec.Name)), uint32(catMetaLen+len(rec.SealedRecipe)),
		[]byte(rec.Name), encodeMeta(rec), rec.SealedRecipe)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.live[rec.Name] = stored // tentative until the commit covers it
	c.mu.Unlock()
	if err := c.log.Commit(seq); err != nil {
		c.mu.Lock()
		delete(c.live, rec.Name)
		c.mu.Unlock()
		return err
	}
	return nil
}

// Delete removes a snapshot, appending a tombstone record. When the
// tombstones outnumber the live snapshots the catalog is compacted in the
// same call. Like Add, concurrent Deletes share fsyncs via group commit.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("dedup: catalog is closed")
	}
	rec, ok := c.live[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSnapshotNotFound, name)
	}
	_, seq, err := c.log.Append(true, catKindDelete, uint32(len(name)), 0, []byte(name))
	if err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.live, name) // tentative until the commit covers it
	c.tombstones++
	c.mu.Unlock()
	if err := c.log.Commit(seq); err != nil {
		c.mu.Lock()
		c.live[name] = rec
		c.tombstones--
		c.mu.Unlock()
		return err
	}
	c.mu.Lock()
	if !c.closed && c.tombstones >= 8 && c.tombstones > len(c.live) {
		// Compaction is an optimization: the log already replays to the
		// right state, so a failed compaction only means the log stays
		// long. Do not fail the delete over it.
		_ = c.compactLocked()
	}
	c.mu.Unlock()
	return nil
}

// Get returns the live snapshot with the given name.
func (c *Catalog) Get(name string) (SnapshotRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.live[name]
	return rec, ok
}

// List returns every live snapshot, sorted by name.
func (c *Catalog) List() []SnapshotRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SnapshotRecord, 0, len(c.live))
	for _, rec := range c.live {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live snapshots.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// Compact rewrites the catalog to hold only the live snapshots: the
// records are written to a fresh file, fsynced, and atomically renamed
// over the old one, so a crash mid-compaction leaves the previous catalog
// intact.
func (c *Catalog) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("dedup: catalog is closed")
	}
	return c.compactLocked()
}

func (c *Catalog) compactLocked() error {
	// Deterministic record order keeps compacted catalogs byte-comparable.
	names := make([]string, 0, len(c.live))
	for name := range c.live {
		names = append(names, name)
	}
	sort.Strings(names)
	err := c.log.Rewrite(func(put func(kind, a, b uint32, body ...[]byte) error) error {
		for _, name := range names {
			rec := c.live[name]
			err := put(catKindAdd, uint32(len(name)), uint32(catMetaLen+len(rec.SealedRecipe)),
				[]byte(name), encodeMeta(rec), rec.SealedRecipe)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.tombstones = 0
	return nil
}

// Close releases the catalog's file handle. Every acknowledged mutation
// is already durable; Close exists to release the descriptor.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.log.Close()
}
