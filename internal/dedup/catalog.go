package dedup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"freqdedup/internal/gcommit"
	"freqdedup/internal/vfs"
)

// The snapshot catalog: the durable record of which snapshots a repository
// holds, kept beside the container shard files. Without it, retention
// state lives only in process memory and a reopened store treats every
// chunk as unreferenced — the "GC after reopen reclaims everything"
// failure the Repository front door exists to fix.
//
// The catalog is an append-only log in the same spirit as the `.fdc`
// container files: a 16-byte file header, then one self-contained record
// per mutation — a snapshot added (with its sealed recipe and summary
// metadata) or a snapshot deleted (a tombstone) — each protected by a
// CRC32 and fsynced before the mutation is acknowledged. Reopening
// replays the log; a record torn by a mid-append crash is detected and
// truncated away, so the replayed state is exactly the set of
// acknowledged mutations. When tombstones accumulate, the catalog is
// compacted: the live records are written to a fresh file that is fsynced
// and atomically renamed over the old one.

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
	catMagic     = 0x46445243 // "FDRC": freqdedup recipe catalog
	catVersion   = 1
	catHeaderLen = 16 // magic + version + 2 reserved, u32 each

	catRecMagic = 0x46445231 // "FDR1": one catalog record
	// catRecHeaderLen is magic + kind + nameLen + payloadLen, u32 each.
	catRecHeaderLen = 16
	catRecTrailer   = 4 // CRC32 over header + name + payload

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
	mu         sync.Mutex
	fsys       vfs.FS
	f          vfs.File
	path       string
	closed     bool
	size       int64
	live       map[string]SnapshotRecord
	tombstones int // delete records in the file not yet compacted away
	scratch    []byte
	salvage    CatalogSalvageStats

	// Group commit: mutations append their record under c.mu, then release
	// it and call gc.Commit with their append's sequence number; concurrent
	// mutations share fsyncs. syncMu orders the committer's fsync against
	// the file-handle swaps in compactLocked and Close (lock order: c.mu
	// before syncMu; the fsync itself holds only syncMu).
	syncMu  sync.Mutex
	gc      *gcommit.Committer
	seq     int64        // last assigned append sequence
	pending []catPending // appended records not yet covered by a sync
}

// catPending maps an append sequence to the file offset its record starts
// at, so a failed commit can truncate the file back to the durable
// boundary.
type catPending struct {
	seq int64
	off int64
}

// initCommitter wires the catalog's group committer. Catalog fsync
// failures are sticky: the file tail past the last successful sync is in
// an unknown durable state, so the instance refuses further appends and
// the caller reopens (replay truncates any torn tail).
func (c *Catalog) initCommitter() {
	c.gc = gcommit.New(func() error {
		c.syncMu.Lock()
		defer c.syncMu.Unlock()
		return c.f.Sync()
	}, true)
}

// CreateCatalogFS initializes a new, empty catalog file on fsys. It fails
// if the file already exists.
func CreateCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dedup: create catalog: %w", err)
	}
	var hdr [catHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], catMagic)
	binary.LittleEndian.PutUint32(hdr[4:], catVersion)
	_, err = f.Write(hdr[:])
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("dedup: write catalog header: %w", err)
	}
	if err := vfs.SyncDir(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	c := &Catalog{
		fsys: fsys,
		f:    f,
		path: path,
		size: catHeaderLen,
		live: make(map[string]SnapshotRecord),
	}
	c.initCommitter()
	return c, nil
}

// OpenCatalogFS opens an existing catalog file on fsys and replays its
// records. A record torn by a mid-append crash — an incomplete tail, or a
// final record whose checksum fails — is discarded by truncating the file
// back to the last acknowledged record. Structural damage anywhere else
// returns ErrCatalogCorrupt.
func OpenCatalogFS(fsys vfs.FS, path string) (*Catalog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("dedup: open catalog: %w", err)
	}
	c := &Catalog{fsys: fsys, f: f, path: path, live: make(map[string]SnapshotRecord)}
	c.initCommitter()
	if err := c.replay(false); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
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
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, CatalogSalvageStats{}, fmt.Errorf("dedup: open catalog: %w", err)
	}
	c := &Catalog{fsys: fsys, f: f, path: path, live: make(map[string]SnapshotRecord)}
	c.initCommitter()
	if err := c.replay(true); err != nil {
		f.Close()
		return nil, c.salvage, err
	}
	if c.salvage.Damaged() {
		if err := c.compactLocked(); err != nil {
			f.Close()
			return nil, c.salvage, fmt.Errorf("dedup: rewrite salvaged catalog: %w", err)
		}
	}
	return c, c.salvage, nil
}

// replay scans the catalog file, rebuilding the live-snapshot map and
// truncating a torn tail. In salvage mode, damaged mid-file records are
// skipped and counted instead of failing the open.
func (c *Catalog) replay(salvage bool) error {
	st, err := c.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < catHeaderLen {
		return fmt.Errorf("%w: %s shorter than its header", ErrCatalogCorrupt, c.path)
	}
	var hdr [catHeaderLen]byte
	if _, err := c.f.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != catMagic {
		return fmt.Errorf("%w: %s has bad magic %#x", ErrCatalogCorrupt, c.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != catVersion {
		return fmt.Errorf("%w: %s has unsupported version %d", ErrCatalogCorrupt, c.path, v)
	}

	pos := int64(catHeaderLen)
	var rec [catRecHeaderLen]byte
	// damaged re-synchronizes a salvage replay on the next record whose
	// header parses and whose checksum verifies, counting what it skips.
	damaged := func(pos int64) (int64, bool) {
		next, ok := resyncCatalogRecord(c.f, pos+1, size)
		if !ok {
			c.salvage.BytesSkipped += size - pos
			return size, false
		}
		c.salvage.RecordsDropped++
		c.salvage.BytesSkipped += next - pos
		return next, true
	}
	for pos < size {
		if pos+catRecHeaderLen > size {
			break // torn tail: header itself incomplete
		}
		if _, err := c.f.ReadAt(rec[:], pos); err != nil {
			return err
		}
		if m := binary.LittleEndian.Uint32(rec[0:]); m != catRecMagic {
			if salvage {
				pos, _ = damaged(pos)
				continue
			}
			return fmt.Errorf("%w: %s: bad record magic %#x at offset %d", ErrCatalogCorrupt, c.path, m, pos)
		}
		kind := binary.LittleEndian.Uint32(rec[4:])
		nameLen := int64(binary.LittleEndian.Uint32(rec[8:]))
		payloadLen := int64(binary.LittleEndian.Uint32(rec[12:]))
		if nameLen == 0 || nameLen > catMaxName || payloadLen > catMaxPayload {
			if salvage {
				pos, _ = damaged(pos)
				continue
			}
			return fmt.Errorf("%w: %s: absurd record lengths (%d, %d) at offset %d",
				ErrCatalogCorrupt, c.path, nameLen, payloadLen, pos)
		}
		end := pos + catRecHeaderLen + nameLen + payloadLen + catRecTrailer
		if end > size {
			if salvage {
				pos, _ = damaged(pos)
				continue
			}
			break // torn tail: body incomplete
		}
		body := make([]byte, nameLen+payloadLen+catRecTrailer)
		if _, err := c.f.ReadAt(body, pos+catRecHeaderLen); err != nil {
			return err
		}
		crc := crc32.ChecksumIEEE(rec[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:nameLen+payloadLen])
		if stored := binary.LittleEndian.Uint32(body[nameLen+payloadLen:]); crc != stored {
			if end == size && !salvage {
				// The final record's bytes are all present but the
				// checksum fails: a crash caught the append mid-write.
				// Discard it like any other torn tail.
				break
			}
			if salvage {
				pos, _ = damaged(pos)
				continue
			}
			return fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrCatalogCorrupt, c.path, pos)
		}
		name := string(body[:nameLen])
		payload := body[nameLen : nameLen+payloadLen]
		switch kind {
		case catKindAdd:
			if payloadLen < catMetaLen {
				if salvage {
					c.salvage.RecordsDropped++
					pos = end
					continue
				}
				return fmt.Errorf("%w: %s: add record for %q has a short payload", ErrCatalogCorrupt, c.path, name)
			}
			if _, ok := c.live[name]; ok {
				if !salvage {
					return fmt.Errorf("%w: %s: duplicate add for live snapshot %q", ErrCatalogCorrupt, c.path, name)
				}
				// A duplicate add means the tombstone between the two was
				// lost to damage: the later record is the acknowledged
				// state, so replace.
				c.salvage.RecordsDropped++
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
					// The add this tombstone pairs with was lost; the
					// skip was already counted when it was dropped.
					pos = end
					continue
				}
				return fmt.Errorf("%w: %s: tombstone for unknown snapshot %q", ErrCatalogCorrupt, c.path, name)
			}
			delete(c.live, name)
			c.tombstones++
		default:
			if salvage {
				c.salvage.RecordsDropped++
				pos = end
				continue
			}
			return fmt.Errorf("%w: %s: unknown record kind %d at offset %d", ErrCatalogCorrupt, c.path, kind, pos)
		}
		pos = end
	}
	if salvage && pos < size {
		// The skipped tail is rewritten away by the compaction that
		// follows a damaged salvage open; nothing to truncate here.
		c.salvage.BytesSkipped += size - pos
		c.size = pos
		return nil
	}
	if pos < size {
		// Discard the torn tail so future appends start at a record
		// boundary.
		if err := c.f.Truncate(pos); err != nil {
			return fmt.Errorf("dedup: truncate torn catalog tail: %w", err)
		}
		if err := c.f.Sync(); err != nil {
			return err
		}
	}
	c.size = pos
	return nil
}

// resyncCatalogRecord scans forward from pos for the next catalog record
// that proves itself: magic and plausible lengths, and a verifying CRC —
// the chain is already broken, so a merely plausible header could be
// recipe bytes that happen to contain the magic.
func resyncCatalogRecord(f vfs.File, pos, size int64) (int64, bool) {
	var hdr [catRecHeaderLen]byte
	for ; pos+catRecHeaderLen <= size; pos++ {
		if _, err := f.ReadAt(hdr[:], pos); err != nil {
			return 0, false
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != catRecMagic {
			continue
		}
		nameLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		payloadLen := int64(binary.LittleEndian.Uint32(hdr[12:]))
		if nameLen == 0 || nameLen > catMaxName || payloadLen > catMaxPayload {
			continue
		}
		end := pos + catRecHeaderLen + nameLen + payloadLen + catRecTrailer
		if end > size {
			continue
		}
		body := make([]byte, nameLen+payloadLen+catRecTrailer)
		if _, err := f.ReadAt(body, pos+catRecHeaderLen); err != nil {
			continue
		}
		crc := crc32.ChecksumIEEE(hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:nameLen+payloadLen])
		if crc != binary.LittleEndian.Uint32(body[nameLen+payloadLen:]) {
			continue
		}
		return pos, true
	}
	return 0, false
}

// buildRecord serializes one record into c.scratch.
func (c *Catalog) buildRecord(kind uint32, name string, meta []byte, sealed []byte) []byte {
	payloadLen := len(meta) + len(sealed)
	n := catRecHeaderLen + len(name) + payloadLen + catRecTrailer
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	buf := c.scratch[:n]
	binary.LittleEndian.PutUint32(buf[0:], catRecMagic)
	binary.LittleEndian.PutUint32(buf[4:], kind)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(name)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(payloadLen))
	off := catRecHeaderLen
	off += copy(buf[off:], name)
	off += copy(buf[off:], meta)
	off += copy(buf[off:], sealed)
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// appendRecordLocked writes one record at the current tail and assigns it
// the next commit sequence, without syncing — durability comes from the
// group commit that follows. Called with c.mu held.
func (c *Catalog) appendRecordLocked(buf []byte) (int64, error) {
	if err := c.gc.Err(); err != nil {
		return 0, fmt.Errorf("dedup: catalog poisoned by earlier sync failure: %w", err)
	}
	off := c.size
	if _, err := c.f.WriteAt(buf, off); err != nil {
		// The record never landed; the tail state is unchanged, so no
		// truncation is needed — just report the failure.
		return 0, fmt.Errorf("dedup: append catalog record: %w", err)
	}
	c.size = off + int64(len(buf))
	c.seq++
	c.pending = append(c.pending, catPending{seq: c.seq, off: off})
	return c.seq, nil
}

// commitRecord runs the group commit for an appended record. Called with
// c.mu released (the committer blocks; holding c.mu would serialize the
// batching it exists to provide). On success the covered pending entries
// are pruned; on failure the file is truncated back to the durable
// boundary so a later successful append does not bury unsynced garbage
// mid-file.
func (c *Catalog) commitRecord(seq int64) error {
	err := c.gc.Commit(seq)
	d := c.gc.Durable()
	c.mu.Lock()
	if err != nil {
		c.truncateToDurableLocked(d)
	} else {
		c.prunePendingLocked(d)
	}
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("dedup: sync catalog: %w", err)
	}
	return nil
}

// prunePendingLocked drops pending entries covered by durable sequence d.
func (c *Catalog) prunePendingLocked(d int64) {
	i := 0
	for i < len(c.pending) && c.pending[i].seq <= d {
		i++
	}
	if i > 0 {
		c.pending = append(c.pending[:0], c.pending[i:]...)
	}
}

// truncateToDurableLocked discards every appended-but-unsynced record
// after a failed commit, so the file tail holds only acknowledged
// mutations. Idempotent: concurrent failed commits all compute the same
// durable boundary.
func (c *Catalog) truncateToDurableLocked(d int64) {
	c.prunePendingLocked(d)
	boundary := c.size
	if len(c.pending) > 0 {
		boundary = c.pending[0].off
	}
	c.pending = c.pending[:0]
	if boundary < c.size {
		c.size = boundary
	}
	if c.f.Truncate(c.size) == nil {
		_ = c.f.Sync()
	}
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
	buf := c.buildRecord(catKindAdd, rec.Name, encodeMeta(rec), rec.SealedRecipe)
	seq, err := c.appendRecordLocked(buf)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.live[rec.Name] = stored // tentative until the commit covers it
	c.mu.Unlock()
	if err := c.commitRecord(seq); err != nil {
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
	seq, err := c.appendRecordLocked(c.buildRecord(catKindDelete, name, nil, nil))
	if err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.live, name) // tentative until the commit covers it
	c.tombstones++
	c.mu.Unlock()
	if err := c.commitRecord(seq); err != nil {
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
	tmpName := c.path + ".rewrite"
	tmp, err := c.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dedup: compact catalog: %w", err)
	}
	abort := func(err error) error {
		tmp.Close()
		c.fsys.Remove(tmpName)
		return err
	}
	var hdr [catHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], catMagic)
	binary.LittleEndian.PutUint32(hdr[4:], catVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		return abort(err)
	}
	size := int64(catHeaderLen)
	// Deterministic record order keeps compacted catalogs byte-comparable.
	names := make([]string, 0, len(c.live))
	for name := range c.live {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := c.live[name]
		buf := c.buildRecord(catKindAdd, rec.Name, encodeMeta(rec), rec.SealedRecipe)
		if _, err := tmp.Write(buf); err != nil {
			return abort(err)
		}
		size += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := c.fsys.Rename(tmpName, c.path); err != nil {
		return abort(err)
	}
	// The rename is the commit point; the renamed temp handle is the new
	// catalog file. Swap the handle under syncMu so an in-flight group
	// commit never fsyncs a closed descriptor. The directory sync
	// afterwards is best-effort.
	c.syncMu.Lock()
	c.f.Close()
	c.f = tmp
	c.syncMu.Unlock()
	c.size = size
	c.tombstones = 0
	// The compacted file was synced and renamed: every record appended so
	// far — including tentative ones awaiting their group commit — is now
	// durable through the rewrite. Release their waiters without a sync.
	c.pending = c.pending[:0]
	c.gc.MarkDurable(c.seq)
	_ = vfs.SyncDir(c.fsys, filepath.Dir(c.path))
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
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	return c.f.Close()
}
