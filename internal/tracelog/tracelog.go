// Package tracelog persists the adversary's view of a repository's upload
// traffic: the durable bridge between the storage stack's observation tap
// (dedup.UploadObserver) and the streaming attack engine
// (internal/attack).
//
// The paper's threat model (Section 3.3) grants the adversary exactly
// what crosses the wire after client-side encryption: the ciphertext
// chunk fingerprints, the ciphertext sizes, and their logical (upload)
// order — never plaintext, keys, or recipes. A Log records precisely
// that, one committed trace per acknowledged backup, in an append-only
// CRC-framed file (traces.fdt) beside the snapshot catalog, so
// OpenRepository can replay real backup histories into the attack engine
// long after the backups ran.
//
// # On-disk format
//
// The file follows the same append-and-truncate discipline as the .fdc
// container shards and the .fdr snapshot catalog: a 16-byte file header,
// then self-contained records
//
//	record  = magic u32 | kind u32 | sid u32 | payloadLen u32 | payload | crc32
//	begin   (kind 1): payload = backup label (UTF-8)
//	chunks  (kind 2): payload = n x (fingerprint [8] | size u32)
//	end     (kind 3): payload = total chunk count u64
//
// where sid is a per-session id letting concurrently running backups
// interleave their records in one file. Sessions buffer their windows in
// memory (spilling unsynced chunks records past a threshold), and the
// end record is fsynced — one group-committed sync shared by concurrent
// sessions — before a backup is acknowledged; a trace with no end record
// (a crashed or
// failed backup) is ignored on replay, and a record torn by a mid-append
// crash — an incomplete tail, or a final record whose CRC fails — is
// truncated away. Structural damage anywhere else is ErrCorrupt: a
// damaged observation history surfaces as an error, never as a silently
// wrong attack input.
//
// The same format carries generated traces: WriteDataset stores a
// dataset as one committed trace per backup, and ReadDataset reads a
// closed log back, a generated one or a closed repository's. A closed
// log ends on an end record, so ReadDataset treats any torn tail,
// trailing bytes or unended trace as ErrCorrupt. OpenReadOnlyFS, for a
// repository that may still be live, ignores a torn tail instead (it
// may be an append in flight) and never repairs it.
package tracelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/gcommit"
	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
)

// LogName is the trace log's file name within a repository directory.
const LogName = "traces.fdt"

// ErrCorrupt is returned when the trace log fails structural validation
// or a non-tail record fails its checksum.
var ErrCorrupt = errors.New("tracelog: trace log corrupt")

// On-disk layout constants.
const (
	logMagic     = 0x4644544C // "FDTL": freqdedup trace log
	logVersion   = 1
	logHeaderLen = 16 // magic + version + 2 reserved, u32 each

	recMagic = 0x46445431 // "FDT1": one trace record
	// recHeaderLen is magic + kind + sid + payloadLen, u32 each.
	recHeaderLen  = 16
	recTrailerLen = 4 // CRC32 over header + payload

	kindBegin  = 1
	kindChunks = 2
	kindEnd    = 3

	// refLen is one observed chunk reference in a chunks payload.
	refLen = fphash.Size + 4

	// maxLabel and maxPayload bound record fields during replay: lengths
	// beyond them cannot come from a well-formed writer and are treated
	// as structural corruption rather than attempted allocations.
	maxLabel   = 4 << 10
	maxPayload = 64 << 20
)

// extent locates one committed chunks record: the payload offset in the
// file and the number of references it holds.
type extent struct {
	off int64
	n   int
}

// Log is an adversary trace log: a sequence of committed backup traces.
// The zero value is not usable; construct with CreateFS or OpenFS.
// A Log is safe for concurrent use — concurrent backup sessions
// interleave records under one lock, and committed traces may be read
// while new ones are appended.
type Log struct {
	mu       sync.Mutex
	f        vfs.File
	path     string
	readOnly bool
	size     int64
	nextSID  uint32
	backups  []*BackupTrace
	unended  int // sessions replay found begun but never ended
	closed   bool
	scratch  []byte

	// Group commit for the end-record fsync: sessions buffer their chunk
	// windows in memory (spilling unsynced records past a threshold), so
	// the only durability barrier is at Commit — and concurrent commits
	// share it. syncMu orders the committer's fsync against the handle
	// teardown in Close (lock order: l.mu before syncMu).
	syncMu  sync.Mutex
	gc      *gcommit.Committer
	seq     int64        // last assigned commit sequence
	pending []logPending // committed-but-unsynced end records
}

// logPending maps a commit sequence to the file offset of its end record,
// so a failed sync can truncate back to the durable boundary.
type logPending struct {
	seq int64
	off int64
}

// initCommitter wires the log's group committer. Trace-log fsync failures
// are sticky: the tail past the last successful sync is in an unknown
// durable state, so the instance refuses further appends and the caller
// reopens (replay truncates any torn tail).
func (l *Log) initCommitter() {
	l.gc = gcommit.New(func() error {
		l.syncMu.Lock()
		defer l.syncMu.Unlock()
		return l.f.Sync()
	}, true)
}

// CreateFS initializes a new, empty trace log file on fsys. It fails if
// the file already exists.
func CreateFS(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracelog: create: %w", err)
	}
	var hdr [logHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	_, err = f.Write(hdr[:])
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("tracelog: write header: %w", err)
	}
	if err := vfs.SyncDir(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	l := &Log{f: f, path: path, size: logHeaderLen}
	l.initCommitter()
	return l, nil
}

// OpenFS opens an existing trace log on fsys and replays its records,
// recovering the committed backup traces. A record torn by a mid-append
// crash is discarded by truncating the file back to the last complete
// record; traces whose backup never committed (no end record) are
// dropped. OpenFS is for the log's owner (the repository); replay-only
// consumers must use OpenReadOnlyFS — OpenFS's tail truncation would
// corrupt a log another process is still appending to.
func OpenFS(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("tracelog: open: %w", err)
	}
	l := &Log{f: f, path: path}
	l.initCommitter()
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenReadOnlyFS opens a trace log on fsys for replay without taking
// ownership: the file is opened read-only, an incomplete tail (which may
// simply be another process's in-flight append, not crash damage) is
// ignored rather than truncated, and Begin is refused. This is the mode
// for inspection tools (`defend attack -repo`, `-dataset repo:`) pointed
// at a repository that may still be live. ReadDataset opens a closed
// log this way and then rejects what a tolerant replay skipped.
func OpenReadOnlyFS(fsys vfs.FS, path string) (*Log, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracelog: open: %w", err)
	}
	l := &Log{f: f, path: path, readOnly: true}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay scans the log file, rebuilding the committed-trace list and
// truncating a torn tail.
func (l *Log) replay() error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < logHeaderLen {
		return fmt.Errorf("%w: %s shorter than its header", ErrCorrupt, l.path)
	}
	var hdr [logHeaderLen]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != logMagic {
		return fmt.Errorf("%w: %s has bad magic %#x", ErrCorrupt, l.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != logVersion {
		return fmt.Errorf("%w: %s has unsupported version %d", ErrCorrupt, l.path, v)
	}

	// One in-flight (begun, not yet ended) trace per session id.
	type pending struct {
		label   string
		extents []extent
		count   int64
	}
	open := make(map[uint32]*pending)

	pos := int64(logHeaderLen)
	var rec [recHeaderLen]byte
	for pos < size {
		if pos+recHeaderLen > size {
			break // torn tail: header itself incomplete
		}
		if _, err := l.f.ReadAt(rec[:], pos); err != nil {
			return err
		}
		if m := binary.LittleEndian.Uint32(rec[0:]); m != recMagic {
			return fmt.Errorf("%w: %s: bad record magic %#x at offset %d", ErrCorrupt, l.path, m, pos)
		}
		kind := binary.LittleEndian.Uint32(rec[4:])
		sid := binary.LittleEndian.Uint32(rec[8:])
		payloadLen := int64(binary.LittleEndian.Uint32(rec[12:]))
		if payloadLen > maxPayload {
			return fmt.Errorf("%w: %s: absurd payload length %d at offset %d", ErrCorrupt, l.path, payloadLen, pos)
		}
		end := pos + recHeaderLen + payloadLen + recTrailerLen
		if end > size {
			break // torn tail: body incomplete
		}
		body := make([]byte, payloadLen+recTrailerLen)
		if _, err := l.f.ReadAt(body, pos+recHeaderLen); err != nil {
			return err
		}
		crc := crc32.ChecksumIEEE(rec[:])
		crc = crc32.Update(crc, crc32.IEEETable, body[:payloadLen])
		if stored := binary.LittleEndian.Uint32(body[payloadLen:]); crc != stored {
			if end == size {
				// The final record's bytes are all present but the
				// checksum fails: a crash caught the append mid-write.
				break
			}
			return fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrCorrupt, l.path, pos)
		}
		if sid >= l.nextSID {
			l.nextSID = sid + 1
		}
		payload := body[:payloadLen]
		switch kind {
		case kindBegin:
			if payloadLen > maxLabel {
				return fmt.Errorf("%w: %s: absurd label length %d at offset %d", ErrCorrupt, l.path, payloadLen, pos)
			}
			if _, ok := open[sid]; ok {
				return fmt.Errorf("%w: %s: duplicate begin for session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			open[sid] = &pending{label: string(payload)}
		case kindChunks:
			p, ok := open[sid]
			if !ok {
				return fmt.Errorf("%w: %s: chunks record for unknown session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			if payloadLen%refLen != 0 {
				return fmt.Errorf("%w: %s: chunks payload length %d not a multiple of %d at offset %d",
					ErrCorrupt, l.path, payloadLen, refLen, pos)
			}
			n := int(payloadLen / refLen)
			p.extents = append(p.extents, extent{off: pos + recHeaderLen, n: n})
			p.count += int64(n)
		case kindEnd:
			p, ok := open[sid]
			if !ok {
				return fmt.Errorf("%w: %s: end record for unknown session %d at offset %d", ErrCorrupt, l.path, sid, pos)
			}
			if payloadLen != 8 {
				return fmt.Errorf("%w: %s: end payload length %d at offset %d", ErrCorrupt, l.path, payloadLen, pos)
			}
			if want := int64(binary.LittleEndian.Uint64(payload)); want != p.count {
				return fmt.Errorf("%w: %s: session %d ended with %d chunks, records hold %d",
					ErrCorrupt, l.path, sid, want, p.count)
			}
			delete(open, sid)
			l.backups = append(l.backups, &BackupTrace{
				Label:   p.label,
				Chunks:  p.count,
				log:     l,
				extents: p.extents,
			})
		default:
			return fmt.Errorf("%w: %s: unknown record kind %d at offset %d", ErrCorrupt, l.path, kind, pos)
		}
		pos = end
	}
	if pos < size && !l.readOnly {
		// Discard the torn tail so future appends start at a record
		// boundary. Unterminated sessions before the tail stay as dead
		// records: their backups were never acknowledged. A read-only
		// replay leaves the tail alone — it may be another process's
		// append in flight, and this opener owns nothing.
		//
		// An append tears only the last record, so a valid record past
		// pos means the record at pos is damaged, not torn (a length
		// field raised past the end of the file looks like a torn body):
		// truncating would delete acknowledged traces.
		if at, err := l.recordAfter(pos, size); err != nil {
			return err
		} else if at >= 0 {
			return fmt.Errorf("%w: %s: damaged record at offset %d, a valid one follows at offset %d", ErrCorrupt, l.path, pos, at)
		}
		if err := l.f.Truncate(pos); err != nil {
			return fmt.Errorf("tracelog: truncate torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size = pos
	l.unended = len(open)
	return nil
}

// recordAfter returns the offset of the first record past pos, up to
// size, whose checksum holds, or -1 if there is none. It reads the file
// in blocks and each candidate record once, so it stops early on a log
// whose later records are intact.
func (l *Log) recordAfter(pos, size int64) (int64, error) {
	const block = 64 << 10
	buf := make([]byte, block+3) // a magic may start in a block's last 3 bytes
	for off := pos + 1; off+recHeaderLen+recTrailerLen <= size; off += block {
		n := int(min(int64(len(buf)), size-off))
		if _, err := l.f.ReadAt(buf[:n], off); err != nil {
			return 0, err
		}
		for i := 0; i < block && i+4 <= n; i++ {
			if binary.LittleEndian.Uint32(buf[i:]) != recMagic {
				continue
			}
			if ok, err := l.validRecordAt(off+int64(i), size); err != nil || ok {
				return off + int64(i), err
			}
		}
	}
	return -1, nil
}

// validRecordAt reports whether a whole record whose checksum holds
// starts at offset at.
func (l *Log) validRecordAt(at, size int64) (bool, error) {
	var hdr [recHeaderLen]byte
	if at+recHeaderLen > size {
		return false, nil
	}
	if _, err := l.f.ReadAt(hdr[:], at); err != nil {
		return false, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[12:]))
	if n > maxPayload || at+recHeaderLen+n+recTrailerLen > size {
		return false, nil
	}
	body := make([]byte, n+recTrailerLen)
	if _, err := l.f.ReadAt(body, at+recHeaderLen); err != nil {
		return false, err
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, body[:n])
	return crc == binary.LittleEndian.Uint32(body[n:]), nil
}

// Backups returns the committed backup traces in commit order. The
// returned slice is a snapshot; traces committed later are not included.
func (l *Log) Backups() []*BackupTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*BackupTrace, len(l.backups))
	copy(out, l.backups)
	return out
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the log's file handle. Every committed trace is already
// durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.f.Close()
}

// buildRecord serializes one record into l.scratch (callers hold l.mu).
func (l *Log) buildRecord(kind, sid uint32, payload []byte) []byte {
	n := recHeaderLen + len(payload) + recTrailerLen
	if cap(l.scratch) < n {
		l.scratch = make([]byte, n)
	}
	buf := l.scratch[:n]
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint32(buf[4:], kind)
	binary.LittleEndian.PutUint32(buf[8:], sid)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	off := recHeaderLen + copy(buf[recHeaderLen:], payload)
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// appendRecord appends one record (callers hold l.mu), returning the
// record's start offset. A failed write leaves the tail state unchanged —
// the next append lands at the same offset. Durability is deferred to the
// session's Commit, which runs the group-commit fsync.
func (l *Log) appendRecord(kind, sid uint32, payload []byte) (int64, error) {
	if err := l.gc.Err(); err != nil {
		return 0, fmt.Errorf("tracelog: log poisoned by earlier sync failure: %w", err)
	}
	buf := l.buildRecord(kind, sid, payload)
	at := l.size
	if _, err := l.f.WriteAt(buf, at); err != nil {
		return 0, fmt.Errorf("tracelog: append record: %w", err)
	}
	l.size += int64(len(buf))
	return at, nil
}

// prunePendingLocked drops pending entries covered by durable sequence d.
func (l *Log) prunePendingLocked(d int64) {
	i := 0
	for i < len(l.pending) && l.pending[i].seq <= d {
		i++
	}
	if i > 0 {
		l.pending = append(l.pending[:0], l.pending[i:]...)
	}
}

// truncateToDurableLocked discards end records past the durable boundary
// after a failed sync. Unsynced chunk records of other in-flight sessions
// may survive past the boundary as dead space; the log is poisoned, so
// nothing further appends behind them, and replay's torn-tail handling
// cleans up after the reopen.
func (l *Log) truncateToDurableLocked(d int64) {
	l.prunePendingLocked(d)
	boundary := l.size
	if len(l.pending) > 0 {
		boundary = l.pending[0].off
	}
	l.pending = l.pending[:0]
	if boundary < l.size {
		l.size = boundary
	}
	if l.f.Truncate(l.size) == nil {
		_ = l.f.Sync()
	}
}

// Begin starts recording one backup's upload trace. The returned Session
// implements dedup.UploadObserver; hand it to the client whose backup is
// being observed, then Commit after the backup is acknowledged (or Abort
// on failure — an aborted session's records are ignored on replay).
func (l *Log) Begin(label string) (*Session, error) {
	if len(label) > maxLabel {
		return nil, fmt.Errorf("tracelog: label longer than %d bytes", maxLabel)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("tracelog: log is closed")
	}
	if l.readOnly {
		return nil, errors.New("tracelog: log is open read-only")
	}
	s := &Session{log: l, label: label, sid: l.nextSID}
	l.nextSID++
	if _, err := l.appendRecord(kindBegin, s.sid, []byte(label)); err != nil {
		return nil, err
	}
	return s, nil
}

// sessionSpillBytes is the encoded size past which a session's buffered
// windows spill to an (unsynced) chunks record. Below it, a backup's
// whole trace stays in memory until Commit — ObserveUpload does no I/O at
// all, keeping the observation tap off the backup's critical path.
const sessionSpillBytes = 4 << 20

// Session records one backup's observed upload stream. It implements
// dedup.UploadObserver. A session is used by one backup pipeline at a
// time; the log it writes to may carry concurrent sessions.
//
// A file-backed session buffers its windows in memory and writes them
// out — still without an fsync — only when the buffer passes the spill
// threshold. Durability happens once, at Commit: the buffered tail and
// the end record are appended, and the end-record fsync is shared with
// concurrently committing sessions via group commit.
type Session struct {
	log     *Log
	label   string
	sid     uint32
	count   int64
	extents []extent
	done    bool
	buf     []byte // encoded refs not yet spilled to the file
}

// ObserveUpload appends one window of observed uploads: ciphertext
// fingerprint and ciphertext size per chunk, in upload order. refs is
// only borrowed for the duration of the call.
func (s *Session) ObserveUpload(refs []trace.ChunkRef) error {
	if len(refs) == 0 {
		return nil
	}
	if s.done {
		return errors.New("tracelog: session already committed or aborted")
	}
	// Encode into the session-local buffer: no log lock and no I/O
	// unless the spill threshold is crossed.
	off := len(s.buf)
	s.buf = append(s.buf, make([]byte, len(refs)*refLen)...)
	for _, ref := range refs {
		copy(s.buf[off:], ref.FP[:])
		binary.LittleEndian.PutUint32(s.buf[off+fphash.Size:], ref.Size)
		off += refLen
	}
	s.count += int64(len(refs))
	if len(s.buf) < sessionSpillBytes {
		return nil
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.spillLocked()
}

// spillLocked writes the session's buffered windows as one chunks record,
// without syncing. Called with l.mu held.
func (s *Session) spillLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	l := s.log
	if l.closed {
		return errors.New("tracelog: log is closed")
	}
	at, err := l.appendRecord(kindChunks, s.sid, s.buf)
	if err != nil {
		return err
	}
	s.extents = append(s.extents, extent{off: at + recHeaderLen, n: len(s.buf) / refLen})
	s.buf = s.buf[:0]
	return nil
}

// Commit seals the session's trace: buffered windows and the end record
// are appended, and a sync covering them has returned before Commit does,
// so an acknowledged backup's trace survives a crash. The sync is shared
// with concurrently committing sessions (group commit). The trace becomes
// visible to Backups.
func (s *Session) Commit() error {
	if s.done {
		return errors.New("tracelog: session already committed or aborted")
	}
	s.done = true
	l := s.log
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("tracelog: log is closed")
	}
	if err := s.spillLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(s.count))
	at, err := l.appendRecord(kindEnd, s.sid, payload[:])
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.seq++
	seq := l.seq
	l.pending = append(l.pending, logPending{seq: seq, off: at})
	l.mu.Unlock()

	err = l.gc.Commit(seq)
	d := l.gc.Durable()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.truncateToDurableLocked(d)
		return fmt.Errorf("tracelog: sync: %w", err)
	}
	l.prunePendingLocked(d)
	l.backups = append(l.backups, &BackupTrace{
		Label:   s.label,
		Chunks:  s.count,
		log:     l,
		extents: s.extents,
	})
	return nil
}

// Abort drops the session. Buffered windows are discarded; records
// already spilled stay in the file as dead space but are never replayed:
// without an end record the trace is not committed — exactly the state a
// crash mid-backup leaves behind.
func (s *Session) Abort() {
	s.done = true
	s.buf = nil
}

// BackupTrace is one committed backup's observed upload stream. It
// implements attack.ChunkSource: Open returns a streaming reader over the
// log file, so a trace larger than RAM feeds the attack engine without
// being materialized.
type BackupTrace struct {
	// Label is the backup's name as recorded at Begin.
	Label string
	// Chunks is the number of observed chunk uploads.
	Chunks int64

	log     *Log
	extents []extent
}

// ChunkCount reports the trace's length, implementing the attack
// engine's optional table pre-sizing hint (attack.ChunkCounter).
func (t *BackupTrace) ChunkCount() int64 { return t.Chunks }

// Open returns a reader over the trace, re-verifying each record's CRC as
// it streams. Readers are independent; a trace may be open several times
// concurrently (the attack engine's counting passes do exactly that), and
// may be read while new sessions append to the same log. Traces must not
// be opened after the log is closed.
func (t *BackupTrace) Open() (attack.ChunkReader, error) {
	l := t.log
	l.mu.Lock()
	f, closed := l.f, l.closed
	l.mu.Unlock()
	if closed {
		return nil, errors.New("tracelog: log is closed")
	}
	return &traceReader{t: t, f: f}, nil
}

// Materialize loads the whole trace as a backup stream — the bridge to
// code that needs in-memory streams (trace-level defense simulation,
// figure runners). Prefer Open for attack runs.
func (t *BackupTrace) Materialize() (*trace.Backup, error) {
	b := &trace.Backup{Label: t.Label, Chunks: make([]trace.ChunkRef, 0, t.Chunks)}
	r, err := t.Open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]trace.ChunkRef, 4096)
	for {
		n, err := r.Read(buf)
		b.Chunks = append(b.Chunks, buf[:n]...)
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// traceReader streams a file-backed trace extent by extent. Each chunks
// record is read with one ReadAt (safe under concurrent appends to the
// same file) and CRC-checked before any reference is handed out.
type traceReader struct {
	t   *BackupTrace
	f   vfs.File // captured at Open; a closed log fails reads cleanly
	ext int      // next extent to load
	buf []trace.ChunkRef
	pos int
}

func (r *traceReader) Read(buf []trace.ChunkRef) (int, error) {
	for r.pos >= len(r.buf) {
		if r.ext >= len(r.t.extents) {
			return 0, io.EOF
		}
		if err := r.load(r.t.extents[r.ext]); err != nil {
			return 0, err
		}
		r.ext++
		r.pos = 0
	}
	n := copy(buf, r.buf[r.pos:])
	r.pos += n
	return n, nil
}

// load reads and verifies one chunks record, decoding it into r.buf.
func (r *traceReader) load(e extent) error {
	l := r.t.log
	payloadLen := e.n * refLen
	raw := make([]byte, recHeaderLen+payloadLen+recTrailerLen)
	if _, err := r.f.ReadAt(raw, e.off-recHeaderLen); err != nil {
		return fmt.Errorf("tracelog: read trace record: %w", err)
	}
	if m := binary.LittleEndian.Uint32(raw[0:]); m != recMagic {
		return fmt.Errorf("%w: %s: bad record magic %#x at offset %d", ErrCorrupt, l.path, m, e.off-recHeaderLen)
	}
	crc := crc32.ChecksumIEEE(raw[:recHeaderLen+payloadLen])
	if stored := binary.LittleEndian.Uint32(raw[recHeaderLen+payloadLen:]); crc != stored {
		return fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrCorrupt, l.path, e.off-recHeaderLen)
	}
	if cap(r.buf) < e.n {
		r.buf = make([]trace.ChunkRef, e.n)
	}
	r.buf = r.buf[:e.n]
	payload := raw[recHeaderLen : recHeaderLen+payloadLen]
	for i := range r.buf {
		off := i * refLen
		copy(r.buf[i].FP[:], payload[off:off+fphash.Size])
		r.buf[i].Size = binary.LittleEndian.Uint32(payload[off+fphash.Size:])
	}
	return nil
}

func (r *traceReader) Close() error {
	r.buf = nil
	return nil
}

// datasetWindow is how many references WriteDataset hands ObserveUpload
// at a time, so each backup spills in sessionSpillBytes records like a
// tapped one instead of one record past maxPayload.
const datasetWindow = 4096

// WriteDataset stores d at path as a trace log: one committed trace per
// backup, in order, labelled with the backup's label. The log is built
// under path+".tmp" and renamed over path once every trace is committed,
// so a re-run replaces the file and an interrupted run leaves no shorter,
// valid-looking log under the final name.
func WriteDataset(fsys vfs.FS, path string, d *trace.Dataset) error {
	tmp := path + ".tmp"
	if err := fsys.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("tracelog: remove stale %s: %w", tmp, err)
	}
	l, err := CreateFS(fsys, tmp)
	if err != nil {
		return err
	}
	for _, b := range d.Backups {
		if err = writeBackup(l, b); err != nil {
			break
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return vfs.SyncDir(fsys, filepath.Dir(path))
}

func writeBackup(l *Log, b *trace.Backup) error {
	s, err := l.Begin(b.Label)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(b.Chunks); lo += datasetWindow {
		if err := s.ObserveUpload(b.Chunks[lo:min(lo+datasetWindow, len(b.Chunks))]); err != nil {
			return err
		}
	}
	return s.Commit()
}

// ReadDataset reads a closed trace log, such as one WriteDataset wrote,
// into a dataset named after the file: its base name without the
// extension, so fileserver.fdt reads as "fileserver". A closed log ends
// on its last end record, so any damage the CRC framing can see is
// ErrCorrupt: a torn or unchecksummed tail, trailing bytes, or a backup
// begun and never ended. Only a cut exactly between two backups reads
// as the backups before it; the format records no backup count. A live
// repository's log, whose tail may be an append in flight, is read with
// OpenReadOnlyFS instead.
func ReadDataset(fsys vfs.FS, path string) (*trace.Dataset, error) {
	l, err := OpenReadOnlyFS(fsys, path)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	st, err := l.f.Stat()
	if err != nil {
		return nil, err
	}
	if tail := st.Size() - l.size; tail > 0 {
		return nil, fmt.Errorf("%w: %s: %d bytes after the last complete record at offset %d", ErrCorrupt, path, tail, l.size)
	}
	if l.unended > 0 {
		return nil, fmt.Errorf("%w: %s: %d backup traces begun and never ended", ErrCorrupt, path, l.unended)
	}
	base := filepath.Base(path)
	d := &trace.Dataset{Name: strings.TrimSuffix(base, filepath.Ext(base))}
	for _, t := range l.Backups() {
		b, err := t.Materialize()
		if err != nil {
			return nil, err
		}
		d.Backups = append(d.Backups, b)
	}
	return d, nil
}
