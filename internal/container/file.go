package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"freqdedup/internal/fphash"
	"freqdedup/internal/vfs"
)

// ErrCorrupt is returned when a store file fails structural validation or
// a container record fails its checksum. It is distinct from ErrNotFound:
// the data is there but cannot be trusted.
var ErrCorrupt = errors.New("container: store file corrupt")

// ErrSalvaged is returned by Seal on a backend opened in salvage mode: a
// salvaged shard file may hold unparseable regions and renumbered
// containers, so appending to it would bury new data behind garbage.
// Repair (which rewrites every salvaged shard) clears the condition.
var ErrSalvaged = errors.New("container: store opened in salvage mode; repair before writing")

// On-disk layout constants. See doc.go for the full format description.
const (
	fileMagic   = 0x46444346 // "FDCF": freqdedup container file
	fileVersion = 1
	// fileHeaderLen is magic + version + shard + containerBytes, u32 each.
	fileHeaderLen = 16

	recordMagic = 0x46444331 // "FDC1": one sealed container record
	// recordHeaderLen is magic + id + entryCount + dataBytes, u32 each.
	recordHeaderLen = 16
	// entryMetaLen is one index-header entry: fingerprint + u32 size.
	entryMetaLen = fphash.Size + 4
	// recordTrailerLen is the CRC32 over the whole record.
	recordTrailerLen = 4
)

// QuarantineDir is the subdirectory of a store directory that Quarantine
// copies damaged container records into.
const QuarantineDir = "quarantine"

// shardFileName returns the file holding a shard's containers.
func shardFileName(shard int) string { return fmt.Sprintf("shard-%04d.fdc", shard) }

// shardFile is one shard's append-only container file plus its in-memory
// record index. mu serializes every file operation of the shard: appends
// are naturally serial, and reads ride the same lock so a GC Rewrite can
// swap the file handle without a reader holding the old one. Cross-shard
// operations run fully in parallel.
type shardFile struct {
	mu      sync.Mutex
	f       vfs.File
	offsets []int64 // byte offset of each sealed record, in ID order
	size    int64   // current end-of-file offset
	// dataBytes is the running total of chunk data bytes across the
	// shard's records, maintained from the record headers already parsed
	// at open and on every Seal/Rewrite — what lets SealedStats answer
	// without a scan.
	dataBytes int64
	scratch   []byte // record serialization buffer, reused across Seals

	// salvaged marks a shard opened by OpenFileBackendSalvage whose file
	// held structural damage: container IDs are renumbered in memory and
	// unparseable regions remain on disk, so Seal is refused until a
	// Rewrite produces a clean file.
	salvaged bool
}

// FileBackend persists sealed containers in per-shard append-only files
// under one directory. Each seal appends a self-contained record (a small
// index header of fingerprints and sizes, then the chunk data, then a
// CRC32) and fsyncs, so a container acknowledged as sealed survives a
// crash; a record torn by a crash mid-append is detected and discarded on
// Open. GC rewrites a shard by writing a fresh file and renaming it over
// the old one, so compaction is atomic too.
//
// All file operations go through the backend's vfs.FS (vfs.OS in
// production), so fault-injection harnesses (internal/faultio) exercise
// the exact production code paths.
type FileBackend struct {
	fsys           vfs.FS
	dir            string
	containerBytes int
	shards         []*shardFile
}

// CreateFileBackend initializes a new store directory with one empty
// container file per shard and returns the backend. It fails if the
// directory already holds a store.
func CreateFileBackend(dir string, shards, containerBytes int) (*FileBackend, error) {
	return CreateFileBackendFS(vfs.OS, dir, shards, containerBytes)
}

// CreateFileBackendFS is CreateFileBackend against an explicit
// filesystem.
func CreateFileBackendFS(fsys vfs.FS, dir string, shards, containerBytes int) (*FileBackend, error) {
	if shards < 1 {
		return nil, fmt.Errorf("container: backend shard count must be positive, got %d", shards)
	}
	if containerBytes <= 0 {
		return nil, fmt.Errorf("container: capacity must be positive, got %d", containerBytes)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("container: create store dir: %w", err)
	}
	if _, err := fsys.Stat(filepath.Join(dir, shardFileName(0))); err == nil {
		return nil, fmt.Errorf("container: %s already holds a store (use OpenFileBackend)", dir)
	}
	b := &FileBackend{fsys: fsys, dir: dir, containerBytes: containerBytes, shards: make([]*shardFile, shards)}
	var hdr [fileHeaderLen]byte
	for i := range b.shards {
		binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
		binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(i))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(containerBytes))
		f, err := fsys.OpenFile(filepath.Join(dir, shardFileName(i)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("container: create shard file: %w", err)
		}
		_, err = f.Write(hdr[:])
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			b.Close()
			return nil, fmt.Errorf("container: write shard header: %w", err)
		}
		b.shards[i] = &shardFile{f: f, size: fileHeaderLen}
	}
	if err := vfs.SyncDir(fsys, dir); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// OpenFileBackend opens an existing store directory, validating every
// shard file's header and record chain. A record torn by a crash
// mid-append (an incomplete header or body at the end of a file) is
// discarded by truncating the file back to the last complete record —
// only containers whose Seal was acknowledged are durable. Structural
// damage anywhere else (bad magic, out-of-sequence IDs, a short file
// header, shards disagreeing on capacity) returns ErrCorrupt.
func OpenFileBackend(dir string) (*FileBackend, error) {
	return OpenFileBackendFS(vfs.OS, dir)
}

// OpenFileBackendFS is OpenFileBackend against an explicit filesystem.
func OpenFileBackendFS(fsys vfs.FS, dir string) (*FileBackend, error) {
	b, _, err := openFileBackend(fsys, dir, false)
	return b, err
}

// SalvageStats reports what a salvage open could not recover.
type SalvageStats struct {
	// ContainersLost is the number of container records skipped because
	// they could not be parsed (the record chain was broken and no
	// CRC-valid record could be re-synchronized onto before them).
	ContainersLost int
	// BytesSkipped is the total size of the unparseable regions.
	BytesSkipped int64
}

// Damaged reports whether the salvage pass had to skip anything.
func (s SalvageStats) Damaged() bool { return s.ContainersLost > 0 || s.BytesSkipped > 0 }

// OpenFileBackendSalvage opens a store directory whose shard files may be
// structurally damaged — the fsck path for stores OpenFileBackend rejects
// with ErrCorrupt. Instead of failing on a broken record chain, the
// salvage scan skips the unparseable region and re-synchronizes on the
// next record whose header parses and whose CRC verifies; surviving
// containers are renumbered densely in memory. Records reachable through
// an intact chain but failing their CRC are kept (Load and ScanTolerant
// surface their ErrCorrupt, so Repair can quarantine them).
//
// A salvaged backend is read-only until repaired: Seal returns
// ErrSalvaged for a shard whose file held damage, because appending would
// bury new records behind garbage. Rewrite (which Repair performs on
// every damaged shard) produces a clean file and clears the condition.
func OpenFileBackendSalvage(fsys vfs.FS, dir string) (*FileBackend, SalvageStats, error) {
	return openFileBackend(fsys, dir, true)
}

func openFileBackend(fsys vfs.FS, dir string, salvage bool) (*FileBackend, SalvageStats, error) {
	var stats SalvageStats
	names, err := fsys.Glob(filepath.Join(dir, "shard-*.fdc"))
	if err != nil {
		return nil, stats, err
	}
	if len(names) == 0 {
		return nil, stats, fmt.Errorf("container: %s holds no store (no shard files)", dir)
	}
	sort.Strings(names)
	b := &FileBackend{fsys: fsys, dir: dir, shards: make([]*shardFile, len(names))}
	for i, name := range names {
		if filepath.Base(name) != shardFileName(i) {
			b.Close()
			return nil, stats, fmt.Errorf("%w: shard files not dense at %s", ErrCorrupt, name)
		}
		sf, capacity, sst, err := openShardFile(fsys, name, i, salvage)
		if err != nil {
			b.Close()
			return nil, stats, err
		}
		stats.ContainersLost += sst.ContainersLost
		stats.BytesSkipped += sst.BytesSkipped
		if i == 0 {
			b.containerBytes = capacity
		} else if capacity != b.containerBytes {
			sf.f.Close()
			b.Close()
			return nil, stats, fmt.Errorf("%w: shard %d capacity %d, shard 0 has %d",
				ErrCorrupt, i, capacity, b.containerBytes)
		}
		b.shards[i] = sf
	}
	return b, stats, nil
}

// parseRecordHeader validates a record header's plausibility at pos and
// returns its fields and end offset. It does not verify the CRC.
func parseRecordHeader(hdr []byte, pos, size int64) (id int, end int64, ok bool) {
	if binary.LittleEndian.Uint32(hdr[0:]) != recordMagic {
		return 0, 0, false
	}
	id = int(binary.LittleEndian.Uint32(hdr[4:]))
	entries := int64(binary.LittleEndian.Uint32(hdr[8:]))
	dataBytes := int64(binary.LittleEndian.Uint32(hdr[12:]))
	end = pos + recordHeaderLen + entries*entryMetaLen + dataBytes + recordTrailerLen
	if end < pos || end > size {
		return 0, 0, false
	}
	return id, end, true
}

// openShardFile validates one shard file and builds its record index,
// truncating a torn tail record left by a crash. In salvage mode a broken
// record chain is skipped instead of failing the open; see
// OpenFileBackendSalvage.
func openShardFile(fsys vfs.FS, name string, shard int, salvage bool) (*shardFile, int, SalvageStats, error) {
	var sst SalvageStats
	flag := os.O_RDWR
	f, err := fsys.OpenFile(name, flag, 0)
	if err != nil {
		return nil, 0, sst, err
	}
	fail := func(err error) (*shardFile, int, SalvageStats, error) {
		f.Close()
		return nil, 0, sst, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	size := st.Size()
	var hdr [fileHeaderLen]byte
	if size < fileHeaderLen {
		return fail(fmt.Errorf("%w: %s shorter than its header", ErrCorrupt, name))
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail(err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return fail(fmt.Errorf("%w: %s has bad magic %#x", ErrCorrupt, name, m))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		return fail(fmt.Errorf("%w: %s has unsupported version %d", ErrCorrupt, name, v))
	}
	if s := binary.LittleEndian.Uint32(hdr[8:]); int(s) != shard {
		return fail(fmt.Errorf("%w: %s labeled shard %d", ErrCorrupt, name, s))
	}
	capacity := int(binary.LittleEndian.Uint32(hdr[12:]))
	if capacity <= 0 {
		return fail(fmt.Errorf("%w: %s has capacity %d", ErrCorrupt, name, capacity))
	}

	sf := &shardFile{f: f}
	pos := int64(fileHeaderLen)
	lastDiskID := -1
	var rec [recordHeaderLen]byte
	for pos < size {
		if pos+recordHeaderLen > size {
			break // torn tail: header itself incomplete
		}
		if _, err := f.ReadAt(rec[:], pos); err != nil {
			return fail(err)
		}
		id, end, headerOK := parseRecordHeader(rec[:], pos, size)
		inSequence := headerOK && (salvage && id > lastDiskID || !salvage && id == len(sf.offsets))
		if headerOK && !inSequence && !salvage {
			return fail(fmt.Errorf("%w: %s: container %d at position %d", ErrCorrupt, name, id, len(sf.offsets)))
		}
		if !headerOK {
			if binary.LittleEndian.Uint32(rec[0:]) != recordMagic && !salvage {
				return fail(fmt.Errorf("%w: %s: bad record magic %#x at offset %d",
					ErrCorrupt, name, binary.LittleEndian.Uint32(rec[0:]), pos))
			}
			if !salvage {
				break // torn tail: body incomplete
			}
		}
		if salvage && (!headerOK || !inSequence) {
			// Broken chain: scan forward for the next CRC-valid record.
			next, nid, nend, ndb, found := resyncRecord(f, pos+1, size, lastDiskID)
			if !found {
				// Nothing parseable remains; everything from pos on is
				// lost. Whether that region held zero or many records is
				// unknowable — count bytes, not containers.
				sst.BytesSkipped += size - pos
				pos = size
				break
			}
			sst.BytesSkipped += next - pos
			sst.ContainersLost += nid - lastDiskID - 1
			sf.salvaged = true
			sf.offsets = append(sf.offsets, next)
			sf.dataBytes += ndb
			lastDiskID = nid
			pos = nend
			continue
		}
		if salvage && id != lastDiskID+1 {
			// Parsable record but IDs skipped: the records between were
			// overwritten or never made it. Renumber densely in memory.
			sst.ContainersLost += id - lastDiskID - 1
			sf.salvaged = true
		}
		sf.offsets = append(sf.offsets, pos)
		sf.dataBytes += int64(binary.LittleEndian.Uint32(rec[12:]))
		lastDiskID = id
		pos = end
	}
	if pos < size && !sf.salvaged {
		// Discard the torn tail so future appends start at a record
		// boundary.
		if err := f.Truncate(pos); err != nil {
			return fail(fmt.Errorf("container: truncate torn tail of %s: %w", name, err))
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	sf.size = pos
	return sf, capacity, sst, nil
}

// resyncRecord scans forward from pos for the next plausible container
// record: header parses, ID exceeds lastID, and the CRC verifies (a
// resync point must prove itself — the chain is already broken, so a
// merely plausible header could be chunk data that happens to contain the
// magic). It returns the record's offset, on-disk ID, and end.
func resyncRecord(f vfs.File, pos, size int64, lastID int) (at int64, id int, end int64, dataBytes int64, ok bool) {
	var hdr [recordHeaderLen]byte
	for ; pos+recordHeaderLen <= size; pos++ {
		if _, err := f.ReadAt(hdr[:], pos); err != nil {
			return 0, 0, 0, 0, false
		}
		id, end, headerOK := parseRecordHeader(hdr[:], pos, size)
		if !headerOK || id <= lastID {
			continue
		}
		body := make([]byte, end-pos-recordHeaderLen)
		if _, err := f.ReadAt(body, pos+recordHeaderLen); err != nil {
			continue
		}
		crc := crc32.ChecksumIEEE(hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:len(body)-recordTrailerLen])
		if crc != binary.LittleEndian.Uint32(body[len(body)-recordTrailerLen:]) {
			continue
		}
		return pos, id, end, int64(binary.LittleEndian.Uint32(hdr[12:])), true
	}
	return 0, 0, 0, 0, false
}

// buildRecord serializes c into sf.scratch as one container record.
func (sf *shardFile) buildRecord(c *Container) ([]byte, error) {
	dataBytes := 0
	for _, e := range c.Entries {
		if len(e.Data) != int(e.Size) {
			return nil, fmt.Errorf("container: entry %v has %d data bytes, size says %d",
				e.FP, len(e.Data), e.Size)
		}
		dataBytes += int(e.Size)
	}
	n := recordHeaderLen + len(c.Entries)*entryMetaLen + dataBytes + recordTrailerLen
	if cap(sf.scratch) < n {
		sf.scratch = make([]byte, n)
	}
	buf := sf.scratch[:n]
	binary.LittleEndian.PutUint32(buf[0:], recordMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(c.ID))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(c.Entries)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(dataBytes))
	off := recordHeaderLen
	for _, e := range c.Entries {
		copy(buf[off:], e.FP[:])
		binary.LittleEndian.PutUint32(buf[off+fphash.Size:], e.Size)
		off += entryMetaLen
	}
	for _, e := range c.Entries {
		copy(buf[off:], e.Data)
		off += len(e.Data)
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// Seal appends the container's record to the shard file and fsyncs;
// durability is acknowledged only by a nil return.
func (b *FileBackend) Seal(shard int, c *Container) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.salvaged {
		return fmt.Errorf("%w (shard %d)", ErrSalvaged, shard)
	}
	if c.ID != len(sf.offsets) {
		return fmt.Errorf("container: seal of container %d on shard %d, want %d", c.ID, shard, len(sf.offsets))
	}
	buf, err := sf.buildRecord(c)
	if err != nil {
		return err
	}
	if _, err := sf.f.WriteAt(buf, sf.size); err != nil {
		sf.discardTail()
		return fmt.Errorf("container: append container %d: %w", c.ID, err)
	}
	if err := sf.f.Sync(); err != nil {
		sf.discardTail()
		return fmt.Errorf("container: sync container %d: %w", c.ID, err)
	}
	sf.offsets = append(sf.offsets, sf.size)
	sf.size += int64(len(buf))
	sf.dataBytes += int64(c.Bytes)
	return nil
}

// discardTail removes whatever a failed append left past the last good
// record, so a later successful Seal does not bury garbage mid-file
// (which Open would then reject as structural corruption instead of
// recovering as a torn tail). Best-effort: if the truncate fails too,
// Open's tail recovery still handles the case where nothing was
// appended afterwards.
func (sf *shardFile) discardTail() {
	if sf.f.Truncate(sf.size) == nil {
		_ = sf.f.Sync()
	}
}

// readRecord reads and validates the record at offset, returning the
// container. With withData false the data region is skipped and the CRC
// (which covers it) is not verified. id is the container's logical ID:
// equal to the on-disk ID for a normally opened shard, the dense renumber
// for a salvaged one.
func (sf *shardFile) readRecord(shard, id int, offset int64, withData bool) (*Container, error) {
	var hdr [recordHeaderLen]byte
	if _, err := sf.f.ReadAt(hdr[:], offset); err != nil {
		return nil, fmt.Errorf("container: read record header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != recordMagic {
		return nil, fmt.Errorf("%w: bad record magic %#x", ErrCorrupt, m)
	}
	entries := int(binary.LittleEndian.Uint32(hdr[8:]))
	dataBytes := int(binary.LittleEndian.Uint32(hdr[12:]))
	metaLen := entries * entryMetaLen
	bodyLen := metaLen + dataBytes + recordTrailerLen
	if !withData {
		bodyLen = metaLen
	}
	body := make([]byte, bodyLen)
	if _, err := sf.f.ReadAt(body, offset+recordHeaderLen); err != nil {
		return nil, fmt.Errorf("container: read record body: %w", err)
	}
	if withData {
		stored := binary.LittleEndian.Uint32(body[metaLen+dataBytes:])
		crc := crc32.ChecksumIEEE(hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:metaLen+dataBytes])
		if crc != stored {
			return nil, fmt.Errorf("%w: container %d checksum mismatch (shard %d)", ErrCorrupt, id, shard)
		}
	}
	c := &Container{ID: id, Entries: make([]Entry, entries)}
	data := body[metaLen:]
	dataOff := 0
	for i := range c.Entries {
		var fp fphash.Fingerprint
		copy(fp[:], body[i*entryMetaLen:])
		size := binary.LittleEndian.Uint32(body[i*entryMetaLen+fphash.Size:])
		e := Entry{FP: fp, Size: size}
		if withData {
			if dataOff+int(size) > dataBytes {
				return nil, fmt.Errorf("%w: container %d entry sizes exceed data region", ErrCorrupt, id)
			}
			e.Data = data[dataOff : dataOff+int(size) : dataOff+int(size)]
		}
		dataOff += int(size)
		c.Bytes += int(size)
		c.Entries[i] = e
	}
	if withData && dataOff != dataBytes {
		return nil, fmt.Errorf("%w: container %d entry sizes sum to %d, data region is %d", ErrCorrupt, id, dataOff, dataBytes)
	}
	return c, nil
}

// Load reads a sealed container from the shard file, verifying its CRC.
func (b *FileBackend) Load(shard, id int) (*Container, error) {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if id < 0 || id >= len(sf.offsets) {
		return nil, ErrNotFound
	}
	return sf.readRecord(shard, id, sf.offsets[id], true)
}

// Scan visits the shard's sealed containers in ID order. With withData
// false only each record's index header is read (fingerprints and sizes;
// Entry.Data stays nil), which is how a reopened store rebuilds its
// fingerprint index without reading chunk data.
func (b *FileBackend) Scan(shard int, withData bool, fn func(*Container) error) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	for id, off := range sf.offsets {
		c, err := sf.readRecord(shard, id, off, withData)
		if err != nil {
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// ScanTolerant visits every container slot of the shard in ID order,
// damaged ones included: fn receives the slot's ID, its container (nil
// when the record is unreadable), and the read error. Records are read
// with data and CRC-verified, so a post-fsync bit flip surfaces here as a
// per-slot ErrCorrupt instead of aborting the whole scan — the substrate
// of the repair pass. A non-nil error from fn aborts the scan.
func (b *FileBackend) ScanTolerant(shard int, fn func(id int, c *Container, err error) error) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	for id, off := range sf.offsets {
		c, err := sf.readRecord(shard, id, off, true)
		if err != nil {
			c = nil
		}
		if ferr := fn(id, c, err); ferr != nil {
			return ferr
		}
	}
	return nil
}

// Quarantine copies the raw bytes of one container record into the
// store's quarantine directory (quarantine/shard-SSSS-container-CCCC.rec)
// for forensics, before a repair rewrite drops it from the shard. The
// copy is byte-exact, damage included. Repair renumbers containers from
// zero, so a later repair can quarantine a different record under the
// same ID: an existing file is never overwritten, and the copy takes the
// first free name shard-SSSS-container-CCCC-N.rec (N = 1, 2, ...)
// instead. It returns the quarantine file's path.
func (b *FileBackend) Quarantine(shard, id int) (string, error) {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if id < 0 || id >= len(sf.offsets) {
		return "", ErrNotFound
	}
	start := sf.offsets[id]
	end := sf.size
	if id+1 < len(sf.offsets) {
		end = sf.offsets[id+1]
	}
	raw := make([]byte, end-start)
	if _, err := sf.f.ReadAt(raw, start); err != nil {
		return "", fmt.Errorf("container: quarantine read: %w", err)
	}
	qdir := filepath.Join(b.dir, QuarantineDir)
	if err := b.fsys.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("container: quarantine dir: %w", err)
	}
	base := filepath.Join(qdir, fmt.Sprintf("shard-%04d-container-%04d", shard, id))
	name := base + ".rec"
	qf, err := b.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	for n := 1; errors.Is(err, os.ErrExist); n++ {
		name = fmt.Sprintf("%s-%d.rec", base, n)
		qf, err = b.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return "", fmt.Errorf("container: quarantine file: %w", err)
	}
	_, err = qf.Write(raw)
	if err == nil {
		err = qf.Sync()
	}
	if cerr := qf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("container: quarantine write: %w", err)
	}
	return name, nil
}

// Rewrite atomically replaces the shard's file with one holding cs: the
// new generation is written to a temporary file, fsynced, and renamed
// over the old file, so a crash mid-compaction leaves the previous
// generation intact. Rewriting a salvaged shard produces a clean file and
// clears its read-only (ErrSalvaged) condition.
func (b *FileBackend) Rewrite(shard int, cs []*Container) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()

	name := filepath.Join(b.dir, shardFileName(shard))
	tmpName := name + ".rewrite"
	tmp, err := b.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("container: rewrite shard %d: %w", shard, err)
	}
	abort := func(err error) error {
		tmp.Close()
		b.fsys.Remove(tmpName)
		return err
	}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(b.containerBytes))
	if _, err := tmp.Write(hdr[:]); err != nil {
		return abort(err)
	}
	offsets := make([]int64, 0, len(cs))
	size := int64(fileHeaderLen)
	var dataBytes int64
	for i, c := range cs {
		if c.ID != i {
			return abort(fmt.Errorf("container: rewrite container ID %d at position %d", c.ID, i))
		}
		buf, err := sf.buildRecord(c)
		if err != nil {
			return abort(err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return abort(err)
		}
		offsets = append(offsets, size)
		size += int64(len(buf))
		for _, e := range c.Entries {
			dataBytes += int64(e.Size)
		}
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := b.fsys.Rename(tmpName, name); err != nil {
		return abort(err)
	}
	// The rename is the commit point: from here the on-disk shard is the
	// new generation, so the in-memory state must follow unconditionally
	// — the renamed temp handle is the new shard file; retire the old
	// one. The directory sync afterwards is best-effort, like every
	// other directory sync here.
	sf.f.Close()
	sf.f = tmp
	sf.offsets = offsets
	sf.size = size
	sf.dataBytes = dataBytes
	sf.salvaged = false
	_ = vfs.SyncDir(b.fsys, b.dir)
	return nil
}

// SealedStats reports the shard's sealed-container count and total chunk
// data bytes from the in-memory record index — no file reads, which is
// what lets a persistent-index store recover its packer counters in
// O(metadata) on open.
func (b *FileBackend) SealedStats(shard int) (int, int64, error) {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return len(sf.offsets), sf.dataBytes, nil
}

// ScanFrom visits the shard's sealed containers with ID >= from in ID
// order, reading only from the watermark forward — the tail rescan a
// fingerprint index performs on open.
func (b *FileBackend) ScanFrom(shard, from int, withData bool, fn func(*Container) error) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if from < 0 {
		from = 0
	}
	for id := from; id < len(sf.offsets); id++ {
		c, err := sf.readRecord(shard, id, sf.offsets[id], withData)
		if err != nil {
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Shards returns the shard count.
func (b *FileBackend) Shards() int { return len(b.shards) }

// ContainerBytes returns the container capacity recorded in the store's
// file headers, so a reopened store packs with the same geometry.
func (b *FileBackend) ContainerBytes() int { return b.containerBytes }

// Dir returns the store directory.
func (b *FileBackend) Dir() string { return b.dir }

// Salvaged reports whether any shard still carries salvage damage (and
// therefore refuses Seal until repaired).
func (b *FileBackend) Salvaged() bool {
	for _, sf := range b.shards {
		if sf == nil {
			continue
		}
		sf.mu.Lock()
		s := sf.salvaged
		sf.mu.Unlock()
		if s {
			return true
		}
	}
	return false
}

// Close closes every shard file. Sealed data is already durable; Close
// exists to release descriptors. Close is idempotent: a second call is a
// no-op returning nil.
func (b *FileBackend) Close() error {
	var first error
	for _, sf := range b.shards {
		if sf == nil {
			continue
		}
		sf.mu.Lock()
		if sf.f != nil {
			if err := sf.f.Close(); err != nil && first == nil {
				first = err
			}
			sf.f = nil
		}
		sf.mu.Unlock()
	}
	return first
}
