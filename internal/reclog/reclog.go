// Package reclog is the append-only, CRC-framed record log that every
// append-only file of a repository is built on: the snapshot catalog
// (catalog.fdr), the trace logs (traces.fdt, negotiation.fdt) and the
// container shards (shard-NNNN.fdc). It owns the framing, the replay and
// its torn-tail rule, group commit and atomic rewrite; each format keeps
// only what its records mean.
//
// # On-disk format
//
//	file    = header | record*
//	header  = magic u32 | version u32 | w2 u32 | w3 u32
//	record  = recMagic u32 | kind u32 | a u32 | b u32 | body | crc32 u32
//
// All integers are little-endian. The CRC32 (IEEE) covers the record
// header and body. A Format gives the body length from a and b and
// bounds them: the catalog's a and b are a name length and a payload
// length, the trace log's a session id and a payload length, a
// container shard's an entry count and a data length (its kind is the
// container ID). The header's reserved words w2 and w3 are zero for the
// logs; a shard keeps its shard index and container capacity there.
//
// # Damage
//
// A crash tears only the record an append was writing: the last one. So
// an owner's replay truncates a tail that runs past the end of the file,
// or a last record whose checksum fails, but only when no whole record
// whose checksum holds starts after it. A damaged length field makes any
// record look like a torn tail, and truncating there would delete every
// acknowledged record behind it; that case, like every other damage, is
// the format's corrupt error, and the file is left as it was. A
// read-only replay applies the same test and leaves the tail alone.
//
// A format with large records (the container shards) replays headers
// only, so an open costs O(metadata): a record is whole when its header
// is well-formed and it ends inside the file. Its checksum is checked
// where damage must be told from a record, on the records found past
// damage, and otherwise by the reader (ReadRecord). So a whole last
// record whose checksum fails is kept, not truncated as torn: for such a
// format it may be an acknowledged record under a flipped bit, which the
// reader reports and the owner can quarantine, not delete unseen.
package reclog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"freqdedup/internal/gcommit"
	"freqdedup/internal/vfs"
)

// Frame sizes.
const (
	HeaderLen    = 16 // file header: magic, version, two reserved u32s
	RecHeaderLen = 16 // record header: recMagic, kind, a, b
	TrailerLen   = 4  // CRC32 over record header and body
)

// Format describes one log format.
type Format struct {
	// Name prefixes errors that are not corruption, e.g. "tracelog".
	Name string
	// Magic and Version fill the file header; RecMagic starts each record.
	Magic, Version, RecMagic uint32
	// BodyLen gives the body length a record header's a and b announce,
	// and false for values no well-formed writer produces: those are
	// damage, not an allocation to attempt.
	BodyLen func(a, b uint32) (int64, bool)
	// Corrupt is the error damage is reported as, wrapped.
	Corrupt error
	// Reserved checks the file header's reserved words w2 and w3 on
	// Open; without it they must be zero.
	Reserved func(w2, w3 uint32) error
	// Ordered marks a format whose record kinds rise through the file: a
	// record whose kind does not exceed the last one replayed is damage,
	// and so is a record found past damage that does not.
	Ordered bool
	// HeaderOnly makes the replay read record headers only; see Damage.
	HeaderOnly bool
}

// Mode selects how Open replays a log and treats damage.
type Mode int

const (
	// Owner opens the log read-write. A torn tail is truncated away; any
	// other damage fails the open and leaves the file unchanged.
	Owner Mode = iota
	// ReadOnly opens the log for replay only. A torn tail is left alone:
	// it may be an append in flight. Other damage fails the open, as for
	// Owner.
	ReadOnly
	// Salvage opens the log read-write and skips damage, resynchronizing
	// on the next whole record whose checksum holds. It neither truncates
	// nor repairs; the caller rewrites the log if Stats says it skipped
	// anything.
	Salvage
)

// Record is one whole record whose checksum holds, or, in a HeaderOnly
// replay, whose header is well-formed.
type Record struct {
	Off  int64 // offset of the record header in the file
	Kind uint32
	A, B uint32
	Body []byte // valid only until the visitor returns; nil if HeaderOnly
	end  int64
}

// Stats reports what a replay did not replay.
type Stats struct {
	// RecordsDropped counts damaged records a salvage replay skipped.
	RecordsDropped int
	// BytesSkipped counts the bytes not replayed: the skipped regions of
	// a salvage replay, plus the tail past the last whole record (which
	// an owner truncated and a read-only replay left in place).
	BytesSkipped int64
}

// Log is an open record log. It is safe for concurrent use. Its owner
// orders its own lock before the log's.
type Log struct {
	fm   *Format
	fsys vfs.FS
	path string

	mu      sync.Mutex
	f       vfs.File
	words   [2]uint32 // the file header's reserved words
	size    int64     // end of the last whole record
	scratch []byte    // framing buffer, reused across appends
	seq     int64     // last assigned commit sequence
	pending []pending

	// syncMu orders the group committer's fsync against the handle swap
	// in Rewrite and Close (lock order: mu, then syncMu; the fsync holds
	// only syncMu).
	syncMu sync.Mutex
	gc     *gcommit.Committer
}

// pending is an appended record that asked for a commit and is not yet
// covered by a sync: a failed sync truncates back to the first one.
type pending struct {
	seq, off int64
}

func newLog(fsys vfs.FS, path string, fm *Format, f vfs.File, size int64) *Log {
	l := &Log{fm: fm, fsys: fsys, path: path, f: f, size: size}
	// Sync failures are sticky: the tail past the last successful sync is
	// in an unknown durable state, so the log refuses further appends
	// and the owner reopens.
	l.gc = gcommit.New(func() error {
		l.syncMu.Lock()
		defer l.syncMu.Unlock()
		return l.f.Sync()
	}, true)
	return l
}

func (l *Log) header() []byte {
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], l.fm.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], l.fm.Version)
	binary.LittleEndian.PutUint32(hdr[8:], l.words[0])
	binary.LittleEndian.PutUint32(hdr[12:], l.words[1])
	return hdr[:]
}

// Frame frames one record of kind, a and b into dst's storage, growing
// it as needed, and returns it: fill writes the body, as long as
// BodyLen(a, b) says, and Frame sums the record. The record goes to the
// log with AppendFramed or a Rewrite's put.
func (fm *Format) Frame(dst []byte, kind, a, b uint32, fill func(body []byte)) ([]byte, error) {
	n, ok := fm.BodyLen(a, b)
	if !ok {
		return dst, fmt.Errorf("%s: record lengths (%d, %d) out of bounds", fm.Name, a, b)
	}
	total := RecHeaderLen + n + TrailerLen
	if int64(cap(dst)) < total {
		dst = make([]byte, total)
	}
	dst = dst[:total]
	binary.LittleEndian.PutUint32(dst[0:], fm.RecMagic)
	binary.LittleEndian.PutUint32(dst[4:], kind)
	binary.LittleEndian.PutUint32(dst[8:], a)
	binary.LittleEndian.PutUint32(dst[12:], b)
	fill(dst[RecHeaderLen : total-TrailerLen])
	binary.LittleEndian.PutUint32(dst[total-TrailerLen:], crc32.ChecksumIEEE(dst[:total-TrailerLen]))
	return dst, nil
}

// frame frames a record whose body is the concatenation of body.
func (fm *Format) frame(dst []byte, kind, a, b uint32, body ...[]byte) ([]byte, error) {
	n := 0
	for _, p := range body {
		n += len(p)
	}
	if want, ok := fm.BodyLen(a, b); !ok || want != int64(n) {
		return dst, fmt.Errorf("%s: a %d-byte record body does not fit its header (%d, %d)", fm.Name, n, a, b)
	}
	return fm.Frame(dst, kind, a, b, func(dst []byte) {
		for _, p := range body {
			dst = dst[copy(dst, p):]
		}
	})
}

// Create makes a new, empty log at path, with its header synced. It
// fails if the file exists.
func Create(fsys vfs.FS, path string, fm *Format) (*Log, error) {
	l, err := CreateUnsynced(fsys, path, fm, 0, 0)
	if err != nil {
		return nil, err
	}
	if err = l.f.Sync(); err == nil {
		err = vfs.SyncDir(fsys, filepath.Dir(path))
	}
	if err != nil {
		l.f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("%s: create: %w", fm.Name, err)
	}
	return l, nil
}

// CreateUnsynced makes a new, empty log at path whose header holds the
// reserved words w2 and w3, and leaves syncing the file (StartSync) and
// its directory to the caller. It fails if the file exists.
func CreateUnsynced(fsys vfs.FS, path string, fm *Format, w2, w3 uint32) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: create: %w", fm.Name, err)
	}
	l := newLog(fsys, path, fm, f, HeaderLen)
	l.words = [2]uint32{w2, w3}
	if _, err := f.Write(l.header()); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("%s: create: %w", fm.Name, err)
	}
	return l, nil
}

// Open opens the log at path and replays it, handing visit each whole
// record whose checksum holds, in file order. An error from visit ends
// the open with that error. See Mode for how damage is treated.
func Open(fsys vfs.FS, path string, fm *Format, mode Mode, visit func(Record) error) (*Log, Stats, error) {
	var f vfs.File
	var err error
	if mode == ReadOnly {
		f, err = fsys.Open(path)
	} else {
		f, err = fsys.OpenFile(path, os.O_RDWR, 0)
	}
	if err != nil {
		return nil, Stats{}, fmt.Errorf("%s: open: %w", fm.Name, err)
	}
	l := newLog(fsys, path, fm, f, 0)
	st, err := l.replay(mode, visit)
	if err != nil {
		f.Close()
		return nil, st, err
	}
	return l, st, nil
}

func (l *Log) replay(mode Mode, visit func(Record) error) (Stats, error) {
	var st Stats
	fi, err := l.f.Stat()
	if err != nil {
		return st, err
	}
	size := fi.Size()
	if size < HeaderLen {
		return st, fmt.Errorf("%w: %s shorter than its header", l.fm.Corrupt, l.path)
	}
	var hdr [HeaderLen]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return st, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != l.fm.Magic {
		return st, fmt.Errorf("%w: %s has bad magic %#x", l.fm.Corrupt, l.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != l.fm.Version {
		return st, fmt.Errorf("%w: %s has unsupported version %d", l.fm.Corrupt, l.path, v)
	}
	l.words = [2]uint32{binary.LittleEndian.Uint32(hdr[8:]), binary.LittleEndian.Uint32(hdr[12:])}
	if l.fm.Reserved != nil {
		if err := l.fm.Reserved(l.words[0], l.words[1]); err != nil {
			return st, fmt.Errorf("%w: %s: %v", l.fm.Corrupt, l.path, err)
		}
	} else if l.words != [2]uint32{} {
		return st, fmt.Errorf("%w: %s has nonzero reserved header bytes", l.fm.Corrupt, l.path)
	}

	var buf []byte
	pos, last := int64(HeaderLen), int64(-1)
	for pos < size {
		rec, damage, err := l.read(pos, size, last, !l.fm.HeaderOnly, &buf)
		if err != nil {
			return st, err
		}
		if damage == "" {
			if err := visit(rec); err != nil {
				return st, err
			}
			pos, last = rec.end, int64(rec.Kind)
			continue
		}
		if mode == Salvage {
			next, err := l.recordAfter(pos, size, last)
			if err != nil {
				return st, err
			}
			if next < 0 {
				break
			}
			st.RecordsDropped++
			st.BytesSkipped += next - pos
			pos = next
			continue
		}
		if damage != torn {
			return st, fmt.Errorf("%w: %s: %s at offset %d", l.fm.Corrupt, l.path, damage, pos)
		}
		break
	}
	if pos < size && mode != Salvage {
		if at, err := l.recordAfter(pos, size, last); err != nil {
			return st, err
		} else if at >= 0 {
			return st, fmt.Errorf("%w: %s: damaged record at offset %d, a valid one follows at offset %d",
				l.fm.Corrupt, l.path, pos, at)
		}
	}
	if pos < size && mode == Owner {
		if err := l.f.Truncate(pos); err != nil {
			return st, fmt.Errorf("%s: truncate torn tail: %w", l.fm.Name, err)
		}
		if err := l.f.Sync(); err != nil {
			return st, err
		}
	}
	st.BytesSkipped += size - pos
	l.size = pos
	return st, nil
}

// torn is read's damage for what an interrupted append leaves: a record
// running past the end of the file, or a last record whose checksum
// fails.
const torn = "torn record"

// read reads the record at pos of a size-byte file, the one after a
// record of kind last, with its body in *buf if check is set. It returns
// the record, or a description of why no whole record (whose checksum
// holds, if check) starts at pos; err is an I/O error.
func (l *Log) read(pos, size, last int64, check bool, buf *[]byte) (rec Record, damage string, err error) {
	if pos+RecHeaderLen > size {
		return rec, torn, nil
	}
	var hdr [RecHeaderLen]byte
	if _, err := l.f.ReadAt(hdr[:], pos); err != nil {
		return rec, "", err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != l.fm.RecMagic {
		return rec, fmt.Sprintf("bad record magic %#x", m), nil
	}
	a, b := binary.LittleEndian.Uint32(hdr[8:]), binary.LittleEndian.Uint32(hdr[12:])
	rec = Record{Off: pos, Kind: binary.LittleEndian.Uint32(hdr[4:]), A: a, B: b}
	n, ok := l.fm.BodyLen(a, b)
	if !ok {
		return rec, fmt.Sprintf("absurd record lengths (%d, %d)", a, b), nil
	}
	rec.end = pos + RecHeaderLen + n + TrailerLen
	if rec.end > size {
		return rec, torn, nil
	}
	if l.fm.Ordered && int64(rec.Kind) <= last {
		return rec, fmt.Sprintf("record %d out of order after %d", rec.Kind, last), nil
	}
	if !check {
		return rec, "", nil
	}
	if int64(cap(*buf)) < n+TrailerLen {
		*buf = make([]byte, n+TrailerLen)
	}
	body := (*buf)[:n+TrailerLen]
	if _, err := l.f.ReadAt(body, pos+RecHeaderLen); err != nil {
		return rec, "", err
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, body[:n])
	if crc != binary.LittleEndian.Uint32(body[n:]) {
		if rec.end == size {
			return rec, torn, nil
		}
		return rec, "record checksum mismatch", nil
	}
	rec.Body = body[:n]
	return rec, "", nil
}

// recordAfter returns the offset of the first whole record past pos
// whose checksum holds and which may follow a record of kind last, or -1
// if there is none.
func (l *Log) recordAfter(pos, size, last int64) (int64, error) {
	var buf []byte
	return Find(l.f, pos+1, size, l.fm.RecMagic, func(at int64) (bool, error) {
		_, damage, err := l.read(at, size, last, true, &buf)
		return damage == "", err
	})
}

// Find returns the first offset in [from, size) where magic starts and
// try(offset) reports true, or -1 if there is none. It reads f in
// 64 KiB blocks and calls try only where the magic appears, so scanning
// a long damaged or torn region costs a read per block, not per byte.
func Find(f vfs.File, from, size int64, magic uint32, try func(at int64) (bool, error)) (int64, error) {
	const block = 64 << 10
	buf := make([]byte, block+3) // a magic may start in a block's last 3 bytes
	for off := from; off+4 <= size; off += block {
		n := int(min(int64(len(buf)), size-off))
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, err
		}
		for i := 0; i < block && i+4 <= n; i++ {
			if binary.LittleEndian.Uint32(buf[i:]) != magic {
				continue
			}
			if ok, err := try(off + int64(i)); err != nil || ok {
				return off + int64(i), err
			}
		}
	}
	return -1, nil
}

// Append writes one record at the tail without syncing and returns its
// offset. With commit set, the record also gets the next commit
// sequence, for Commit; records appended without it reach the disk with
// the next sync but are never waited on. Append fails once a sync has
// failed.
func (l *Log) Append(commit bool, kind, a, b uint32, body ...[]byte) (off, seq int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.scratch, err = l.fm.frame(l.scratch, kind, a, b, body...); err != nil {
		return 0, 0, err
	}
	// A failed write leaves the tail where it was: the next append
	// overwrites whatever part of the record landed.
	if off, err = l.write(l.scratch); err != nil {
		return 0, 0, err
	}
	if commit {
		l.seq++
		seq = l.seq
		l.pending = append(l.pending, pending{seq: seq, off: off})
	}
	return off, seq, nil
}

// AppendFramed writes rec, a record Frame built, at the tail without
// syncing and returns its offset, where the record was to go if err is
// set. It is for records too large for Append's buffer to keep; they are
// never waited on by Commit: the caller syncs them (Sync, StartSync),
// and takes back one whose write or sync failed with Truncate(off).
func (l *Log) AppendFramed(rec []byte) (off int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.write(rec)
}

// write writes rec at the tail, which it then moves past rec. The caller
// holds l.mu.
func (l *Log) write(rec []byte) (int64, error) {
	off := l.size
	if err := l.gc.Err(); err != nil {
		return off, fmt.Errorf("%s: poisoned by earlier sync failure: %w", l.fm.Name, err)
	}
	if _, err := l.f.WriteAt(rec, off); err != nil {
		return off, fmt.Errorf("%s: append record: %w", l.fm.Name, err)
	}
	l.size += int64(len(rec))
	return off, nil
}

// Sync syncs the log's file, which makes every record appended so far
// durable.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.f.Sync()
}

// StartSync starts Sync and returns without waiting for it, as
// vfs.StartSync does. The caller waits on it before it appends to,
// truncates, rewrites or closes the log.
func (l *Log) StartSync() *vfs.PendingSync {
	return vfs.StartSync(l.fsys, l.f)
}

// Truncate drops the records from off on, such as one whose write or
// sync failed, so a later append does not bury their remains mid-file.
// It cuts the file back and syncs it, best-effort: if the cut fails, an
// owner's replay still finds the remains a torn tail, as long as nothing
// was appended after them.
func (l *Log) Truncate(off int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.truncate(off)
}

func (l *Log) truncate(off int64) {
	l.size = off
	if l.f.Truncate(off) == nil {
		_ = l.f.Sync()
	}
}

// Commit returns once a sync covering the record Append gave seq has
// returned. Concurrent commits share syncs (group commit), so call it
// holding no lock an Append needs. A failed sync poisons the log and
// truncates it back to its durable boundary, the first record still
// waiting for a commit.
func (l *Log) Commit(seq int64) error {
	err := l.gc.Commit(seq)
	d := l.gc.Durable()
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.pending) && l.pending[i].seq <= d {
		i++
	}
	l.pending = append(l.pending[:0], l.pending[i:]...)
	if err == nil {
		return nil
	}
	off := l.size
	if len(l.pending) > 0 {
		off = l.pending[0].off
		l.pending = l.pending[:0]
	}
	l.truncate(off)
	return fmt.Errorf("%s: sync: %w", l.fm.Name, err)
}

// Rewrite atomically replaces the log's records with the ones fill
// puts: they go to a fresh file beside the log, under the same header,
// which is synced and renamed over it, so a crash leaves the old log or
// the new one. Every record appended before is durable through the
// rewrite, so commits waiting on them return without a sync. The owner
// holds off appends while Rewrite runs.
func (l *Log) Rewrite(fill func(put func(kind, a, b uint32, body ...[]byte) error) error) error {
	return l.RewriteFramed(func(put func(rec []byte) error) error {
		return fill(func(kind, a, b uint32, body ...[]byte) error {
			var err error
			if l.scratch, err = l.fm.frame(l.scratch, kind, a, b, body...); err != nil {
				return err
			}
			return put(l.scratch)
		})
	})
}

// RewriteFramed is Rewrite for records Frame built, which put writes as
// they are.
func (l *Log) RewriteFramed(fill func(put func(rec []byte) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tmpName := l.path + ".rewrite"
	tmp, err := l.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%s: rewrite: %w", l.fm.Name, err)
	}
	size := int64(HeaderLen)
	put := func(rec []byte) error {
		_, err := tmp.Write(rec)
		size += int64(len(rec))
		return err
	}
	_, err = tmp.Write(l.header())
	if err == nil {
		err = fill(put)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = l.fsys.Rename(tmpName, l.path)
	}
	if err != nil {
		tmp.Close()
		l.fsys.Remove(tmpName)
		return fmt.Errorf("%s: rewrite: %w", l.fm.Name, err)
	}
	// The rename is the commit point, and the renamed temp handle is the
	// log now. The directory sync after it is best-effort.
	l.syncMu.Lock()
	l.f.Close()
	l.f = tmp
	l.syncMu.Unlock()
	l.size = size
	l.pending = l.pending[:0]
	l.gc.MarkDurable(l.seq)
	_ = vfs.SyncDir(l.fsys, filepath.Dir(l.path))
	return nil
}

// ReadRecord reads the record at off, whose body is bodyLen bytes, into
// *buf (grown as needed), checks its magic and checksum again, and
// returns its body. It is safe to call while records are appended.
func (l *Log) ReadRecord(off, bodyLen int64, buf *[]byte) ([]byte, error) {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	n := RecHeaderLen + bodyLen + TrailerLen
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	raw := (*buf)[:n]
	if _, err := f.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("%s: read record: %w", l.fm.Name, err)
	}
	if m := binary.LittleEndian.Uint32(raw[0:]); m != l.fm.RecMagic {
		return nil, fmt.Errorf("%w: %s: bad record magic %#x at offset %d", l.fm.Corrupt, l.path, m, off)
	}
	if crc32.ChecksumIEEE(raw[:n-TrailerLen]) != binary.LittleEndian.Uint32(raw[n-TrailerLen:]) {
		return nil, fmt.Errorf("%w: %s: record checksum mismatch at offset %d", l.fm.Corrupt, l.path, off)
	}
	return raw[RecHeaderLen : n-TrailerLen], nil
}

// ReadAt reads len(p) bytes of the file at off, unchecked: a part of a
// record no checksum covers alone, or a damaged record's raw bytes.
func (l *Log) ReadAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	return f.ReadAt(p, off)
}

// Close releases the file handle. Every committed record is already
// durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.f.Close()
}
