package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/fphash"
	"freqdedup/internal/reclog"
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
	// fileHeaderLen is magic + version + shard + capacity, u32 each.
	fileHeaderLen = reclog.HeaderLen
	recordMagic   = 0x46444331 // "FDC1": one sealed container record
	// entryMetaLen is one index-header entry: fingerprint + u32 size.
	entryMetaLen = fphash.Size + 4
)

// shardFormat frames container records as reclog records: kind is the
// container ID, a the entry count and b the data bytes. The file
// header's reserved words hold the shard index and the capacity, which
// each shard's open checks with its own copy of the format.
var shardFormat = reclog.Format{
	Name:     "container",
	Magic:    fileMagic,
	Version:  fileVersion,
	RecMagic: recordMagic,
	BodyLen: func(entries, dataBytes uint32) (int64, bool) {
		return recordHead{entries, dataBytes}.bodyLen(), true
	},
	Corrupt:    ErrCorrupt,
	Ordered:    true,
	HeaderOnly: true,
}

// QuarantineDir is the subdirectory of a store directory that Quarantine
// copies damaged container records into.
const QuarantineDir = "quarantine"

// shardFileName returns the file holding a shard's containers.
func shardFileName(shard int) string { return fmt.Sprintf("shard-%04d.fdc", shard) }

// recordHead is what a container record's header says of its body.
type recordHead struct {
	entries, dataBytes uint32
}

func (h recordHead) bodyLen() int64 { return int64(h.entries)*entryMetaLen + int64(h.dataBytes) }

// shardFile is one shard's record log plus its in-memory record index.
// mu serializes every operation of the shard: appends are naturally
// serial, and reads ride the same lock so a GC Rewrite can swap the file
// without a reader holding the old one. Cross-shard operations run fully
// in parallel.
type shardFile struct {
	mu      sync.Mutex
	log     *reclog.Log
	offsets []int64      // byte offset of each sealed record, in ID order
	heads   []recordHead // each sealed record's header, in ID order
	// dataBytes is the running total of chunk data bytes across the
	// shard's records, maintained from the record headers already parsed
	// at open and on every Seal/Rewrite — what lets SealedStats answer
	// without a scan.
	dataBytes int64

	// salvaged marks a shard opened by OpenFileBackendSalvage whose file
	// held structural damage or a torn tail: container IDs are renumbered
	// in memory and unparseable regions remain on disk, so Seal is
	// refused until a Rewrite produces a clean file.
	salvaged bool
}

// FileBackend persists sealed containers in per-shard append-only files
// under one directory, each a reclog record log. Each seal appends a
// self-contained record (a small index header of fingerprints and sizes,
// then the chunk data, then a CRC32) and fsyncs, so a container
// acknowledged as sealed survives a crash; a record torn by a crash
// mid-append is detected and discarded on Open. SealAll seals many
// shards in one pass whose fsyncs overlap each other and the next
// shard's write. GC rewrites a shard by writing a fresh file and renaming
// it over the old one, so compaction is atomic too.
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
	// The headers are written in shard order, each fsync started before
	// the next shard's create, and the fsyncs awaited together.
	var err error
	var syncs []*vfs.PendingSync
	for i := range b.shards {
		var l *reclog.Log
		l, err = reclog.CreateUnsynced(fsys, filepath.Join(dir, shardFileName(i)), &shardFormat, uint32(i), uint32(containerBytes))
		if err != nil {
			break
		}
		b.shards[i] = &shardFile{log: l}
		syncs = append(syncs, l.StartSync())
		if syncs[i].Failed() {
			break // reported below
		}
	}
	for _, p := range syncs {
		if serr := p.Wait(); serr != nil && err == nil {
			err = fmt.Errorf("container: sync shard header: %w", serr)
		}
	}
	if err == nil {
		err = vfs.SyncDir(fsys, dir)
	}
	if err != nil {
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
		sf, lost, err := b.openShard(name, i, salvage)
		if err != nil {
			b.Close()
			return nil, stats, err
		}
		stats.ContainersLost += lost.ContainersLost
		stats.BytesSkipped += lost.BytesSkipped
		b.shards[i] = sf
	}
	return b, stats, nil
}

// openShard replays a shard's file into its record index. The replay
// reads record headers only (reclog's HeaderOnly), so it costs
// O(metadata); in salvage mode it renumbers the containers densely and
// counts the IDs it skipped as lost.
func (b *FileBackend) openShard(name string, shard int, salvage bool) (*shardFile, SalvageStats, error) {
	var lost SalvageStats
	fm := shardFormat
	fm.Reserved = func(s, capacity uint32) error {
		switch {
		case int(s) != shard:
			return fmt.Errorf("labeled shard %d", s)
		case capacity == 0:
			return errors.New("capacity 0")
		case shard > 0 && int(capacity) != b.containerBytes:
			return fmt.Errorf("capacity %d, shard 0 has %d", capacity, b.containerBytes)
		}
		b.containerBytes = int(capacity)
		return nil
	}
	mode := reclog.Owner
	if salvage {
		mode = reclog.Salvage
	}
	sf := &shardFile{}
	last := -1
	l, st, err := reclog.Open(b.fsys, name, &fm, mode, func(r reclog.Record) error {
		if gap := int(r.Kind) - last - 1; gap > 0 {
			if !salvage {
				return fmt.Errorf("%w: %s: container %d at position %d", ErrCorrupt, name, r.Kind, len(sf.offsets))
			}
			lost.ContainersLost += gap
			sf.salvaged = true
		}
		last = int(r.Kind)
		sf.offsets = append(sf.offsets, r.Off)
		sf.heads = append(sf.heads, recordHead{entries: r.A, dataBytes: r.B})
		sf.dataBytes += int64(r.B)
		return nil
	})
	if err != nil {
		return nil, lost, err
	}
	sf.log = l
	// A salvage replay leaves what it skipped on disk, a torn tail
	// included, so any skipped byte refuses Seal until Repair rewrites.
	sf.salvaged = sf.salvaged || salvage && st.BytesSkipped > 0
	lost.BytesSkipped = st.BytesSkipped
	return sf, lost, nil
}

// recordBuf returns a pooled buffer for the record framing h, which the
// caller puts back once the record is written or read. It asks for at
// least a full container's record, so a shard's records share one size
// class and a full container's buffer serves a partial one.
func (b *FileBackend) recordBuf(h recordHead) []byte {
	n := int(reclog.RecHeaderLen + h.bodyLen() + reclog.TrailerLen)
	return bufpool.Get(max(n, reclog.RecHeaderLen+b.containerBytes+reclog.TrailerLen))[:n]
}

// buildRecord frames c as one container record into a buffer from
// recordBuf; the caller puts it back once the record is written.
func (b *FileBackend) buildRecord(c *Container) ([]byte, recordHead, error) {
	h := recordHead{entries: uint32(len(c.Entries))}
	for _, e := range c.Entries {
		if len(e.Data) != int(e.Size) {
			return nil, h, fmt.Errorf("container: entry %v has %d data bytes, size says %d",
				e.FP, len(e.Data), e.Size)
		}
		h.dataBytes += e.Size
	}
	buf := b.recordBuf(h)
	rec, err := shardFormat.Frame(buf, uint32(c.ID), h.entries, h.dataBytes, func(body []byte) {
		for _, e := range c.Entries {
			copy(body, e.FP[:])
			binary.LittleEndian.PutUint32(body[fphash.Size:], e.Size)
			body = body[entryMetaLen:]
		}
		for _, e := range c.Entries {
			body = body[copy(body, e.Data):]
		}
	})
	if err != nil {
		bufpool.Put(buf)
		return nil, h, err
	}
	return rec, h, nil
}

// Seal appends the container's record to the shard file and fsyncs;
// durability is acknowledged only by a nil return.
func (b *FileBackend) Seal(shard int, c *Container) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if err := sf.checkSeal(shard, c); err != nil {
		return err
	}
	rec, h, err := b.buildRecord(c)
	if err != nil {
		return err
	}
	off, err := sf.appendRecord(rec)
	bufpool.Put(rec)
	if err != nil {
		return err
	}
	return sf.settle(c, off, h, sf.log.Sync())
}

// errSealSkipped is SealAll's error for a shard it did not write because
// an earlier shard of the pass had already failed.
var errSealSkipped = errors.New("container: seal skipped: an earlier shard of the pass failed")

// SealAll seals cs[i] on shard i for every non-nil cs[i], in one pass
// that overlaps the shards' fsyncs: the records are serialized
// concurrently, then written in shard order, each record's fsync started
// with vfs.StartSync before the next shard's write, and SealAll returns
// only after every fsync it started has returned. errs[i] is nil exactly
// when cs[i] is nil or now durable. A shard whose append or fsync failed
// has its tail discarded and its container unsealed, as after a failed
// Seal. Once the pass knows of a failure it writes no further shard;
// those report an error too. On a filesystem whose syncs are ordered
// (faultio.MemFS) each fsync completes before the next shard's write, so
// the pass performs exactly the operations of one Seal per shard in
// shard order, and a failed fsync stops it where it fails.
func (b *FileBackend) SealAll(cs []*Container) []error {
	errs := make([]error, len(cs))
	var todo []int
	for i, c := range cs {
		if c != nil {
			todo = append(todo, i)
		}
	}
	// Index order is the backend's lock order; every other method holds
	// one shard lock at a time.
	for _, i := range todo {
		sf := b.shards[i]
		sf.mu.Lock()
		defer sf.mu.Unlock()
	}
	var builders sync.WaitGroup
	defer builders.Wait()
	built := b.buildRecords(cs, todo, &builders)
	syncs := make([]*vfs.PendingSync, len(cs))
	offs := make([]int64, len(cs))
	heads := make([]recordHead, len(cs))
	stopped := false
	for k, i := range todo {
		r := <-built[k]
		sf, c := b.shards[i], cs[i]
		switch {
		case stopped:
			errs[i] = errSealSkipped
		case r.err != nil:
			errs[i] = r.err
		default:
			errs[i] = sf.checkSeal(i, c)
			if errs[i] == nil {
				heads[i] = r.head
				offs[i], errs[i] = sf.appendRecord(r.buf)
			}
		}
		bufpool.Put(r.buf)
		if errs[i] != nil {
			stopped = true
			continue
		}
		syncs[i] = sf.log.StartSync()
		stopped = syncs[i].Failed()
	}
	for _, i := range todo {
		if syncs[i] != nil {
			errs[i] = b.shards[i].settle(cs[i], offs[i], heads[i], syncs[i].Wait())
		}
	}
	return errs
}

// builtRecord is one record serialized by buildRecords.
type builtRecord struct {
	buf  []byte // from recordBuf
	head recordHead
	err  error
}

// buildRecords serializes cs[todo[k]] into out[k] for every k, on up to
// GOMAXPROCS goroutines that claim the records in order, so the first
// records are ready first. wg is done once every goroutine has exited.
func (b *FileBackend) buildRecords(cs []*Container, todo []int, wg *sync.WaitGroup) []chan builtRecord {
	out := make([]chan builtRecord, len(todo))
	for k := range out {
		out[k] = make(chan builtRecord, 1)
	}
	var next atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(todo); k = int(next.Add(1) - 1) {
				buf, head, err := b.buildRecord(cs[todo[k]])
				out[k] <- builtRecord{buf: buf, head: head, err: err}
			}
		}()
	}
	return out
}

// checkSeal refuses a seal the shard cannot take: a salvaged shard, or a
// container out of ID order. The caller holds sf.mu.
func (sf *shardFile) checkSeal(shard int, c *Container) error {
	if sf.salvaged {
		return fmt.Errorf("%w (shard %d)", ErrSalvaged, shard)
	}
	if c.ID != len(sf.offsets) {
		return fmt.Errorf("container: seal of container %d on shard %d, want %d", c.ID, shard, len(sf.offsets))
	}
	return nil
}

// appendRecord writes a record at the end of the shard file and returns
// its offset, discarding whatever a failed write left behind. The caller
// holds sf.mu.
func (sf *shardFile) appendRecord(rec []byte) (int64, error) {
	off, err := sf.log.AppendFramed(rec)
	if err != nil {
		sf.log.Truncate(off)
	}
	return off, err
}

// settle finishes the seal of c, whose record was appended at off, with
// the result of its fsync: on success the record joins the shard's
// index; on failure the tail is discarded, so a later successful Seal
// does not bury it mid-file. The caller holds sf.mu.
func (sf *shardFile) settle(c *Container, off int64, h recordHead, syncErr error) error {
	if syncErr != nil {
		sf.log.Truncate(off)
		return fmt.Errorf("container: sync container %d: %w", c.ID, syncErr)
	}
	sf.offsets = append(sf.offsets, off)
	sf.heads = append(sf.heads, h)
	sf.dataBytes += int64(h.dataBytes)
	return nil
}

// readRecord reads container id's record. With withData it reads the
// whole record into *buf (a fresh buffer when buf is nil) and verifies
// its CRC; without, only its index header of fingerprints and sizes,
// which no CRC covers alone. id is the container's logical ID: equal to
// the on-disk ID for a normally opened shard, the dense renumber for a
// salvaged one.
func (sf *shardFile) readRecord(shard, id int, withData bool, buf *[]byte) (*Container, error) {
	off, h := sf.offsets[id], sf.heads[id]
	metaLen := int(h.entries) * entryMetaLen
	var body []byte
	if withData {
		if buf == nil {
			buf = new([]byte)
		}
		var err error
		if body, err = sf.log.ReadRecord(off, h.bodyLen(), buf); err != nil {
			return nil, fmt.Errorf("container %d (shard %d): %w", id, shard, err)
		}
	} else {
		body = make([]byte, metaLen)
		if _, err := sf.log.ReadAt(body, off+reclog.RecHeaderLen); err != nil {
			return nil, fmt.Errorf("container: read record index: %w", err)
		}
	}
	c := &Container{ID: id, Entries: make([]Entry, h.entries)}
	data := body[metaLen:]
	dataOff := 0
	for i := range c.Entries {
		var fp fphash.Fingerprint
		copy(fp[:], body[i*entryMetaLen:])
		size := binary.LittleEndian.Uint32(body[i*entryMetaLen+fphash.Size:])
		e := Entry{FP: fp, Size: size}
		if withData {
			if dataOff+int(size) > len(data) {
				return nil, fmt.Errorf("%w: container %d entry sizes exceed data region", ErrCorrupt, id)
			}
			e.Data = data[dataOff : dataOff+int(size) : dataOff+int(size)]
		}
		dataOff += int(size)
		c.Bytes += int(size)
		c.Entries[i] = e
	}
	if withData && dataOff != len(data) {
		return nil, fmt.Errorf("%w: container %d entry sizes sum to %d, data region is %d", ErrCorrupt, id, dataOff, len(data))
	}
	return c, nil
}

// Load reads a sealed container from the shard file into *buf (see
// Backend.Load), verifying its CRC: *buf is put back and replaced by a
// recordBuf.
func (b *FileBackend) Load(shard, id int, buf *[]byte) (*Container, error) {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if id < 0 || id >= len(sf.offsets) {
		return nil, ErrNotFound
	}
	if buf != nil {
		bufpool.Put(*buf)
		*buf = b.recordBuf(sf.heads[id])
	}
	return sf.readRecord(shard, id, true, buf)
}

// Scan visits the shard's sealed containers in ID order. With withData
// false only each record's index header is read (fingerprints and sizes;
// Entry.Data stays nil), which is how a reopened store rebuilds its
// fingerprint index without reading chunk data.
func (b *FileBackend) Scan(shard int, withData bool, fn func(*Container) error) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	for id := range sf.offsets {
		c, err := sf.readRecord(shard, id, withData, nil)
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
	for id := range sf.offsets {
		c, err := sf.readRecord(shard, id, true, nil)
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
	raw := make([]byte, reclog.RecHeaderLen+sf.heads[id].bodyLen()+reclog.TrailerLen)
	if _, err := sf.log.ReadAt(raw, sf.offsets[id]); err != nil {
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

// Rewrite atomically replaces the shard's file with one holding cs
// (reclog's rewrite: a temporary file, fsynced and renamed over the old
// one), so a crash mid-compaction leaves the previous generation intact.
// Rewriting a salvaged shard produces a clean file and clears its
// read-only (ErrSalvaged) condition.
func (b *FileBackend) Rewrite(shard int, cs []*Container) error {
	sf := b.shards[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	offsets := make([]int64, 0, len(cs))
	heads := make([]recordHead, 0, len(cs))
	var dataBytes int64
	off := int64(fileHeaderLen)
	err := sf.log.RewriteFramed(func(put func([]byte) error) error {
		for i, c := range cs {
			if c.ID != i {
				return fmt.Errorf("container: rewrite container ID %d at position %d", c.ID, i)
			}
			rec, h, err := b.buildRecord(c)
			if err != nil {
				return err
			}
			n := int64(len(rec))
			err = put(rec)
			bufpool.Put(rec)
			if err != nil {
				return err
			}
			offsets = append(offsets, off)
			heads = append(heads, h)
			off += n
			dataBytes += int64(h.dataBytes)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sf.offsets, sf.heads, sf.dataBytes, sf.salvaged = offsets, heads, dataBytes, false
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
		c, err := sf.readRecord(shard, id, withData, nil)
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
		if sf.log != nil {
			if err := sf.log.Close(); err != nil && first == nil {
				first = err
			}
			sf.log = nil
		}
		sf.mu.Unlock()
	}
	return first
}
