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
// The file is a record log (internal/reclog), the same framing as the
// .fdr snapshot catalog: a 16-byte file header, then self-contained
// records
//
//	record  = magic u32 | kind u32 | sid u32 | payloadLen u32 | payload | CRC-32 u32
//	begin   (kind 1): payload = backup label (UTF-8)
//	chunks  (kind 2): payload = n x (fingerprint [8] | size u32)
//	end     (kind 3): payload = total chunk count u64
//
// where sid is a per-session id letting concurrently running backups
// interleave their records in one file. Sessions buffer their windows in
// memory (spilling unsynced chunks records past a threshold), and the
// end record is fsynced — one group-committed sync shared by concurrent
// sessions — before a backup is acknowledged; a trace with no end record
// (a crashed or failed backup) is ignored on replay, and a record torn
// by a mid-append crash — an incomplete tail, or a final record whose
// CRC fails — is truncated away. Damage anywhere else, including a
// record that only looks torn because a valid one follows it, is
// ErrCorrupt: a damaged observation history surfaces as an error, never
// as a silently wrong attack input.
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
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/reclog"
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
	logHeaderLen = reclog.HeaderLen

	recMagic      = 0x46445431 // "FDT1": one trace record
	recHeaderLen  = reclog.RecHeaderLen
	recTrailerLen = reclog.TrailerLen

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

// logFormat frames trace records: a is the session id, b the payload
// length, and the body is the payload.
var logFormat = &reclog.Format{
	Name:     "tracelog",
	Magic:    logMagic,
	Version:  logVersion,
	RecMagic: recMagic,
	BodyLen:  func(_, n uint32) (int64, bool) { return int64(n), n <= maxPayload },
	Corrupt:  ErrCorrupt,
}

// extent locates one committed chunks record: the record's offset in the
// file and the number of references it holds.
type extent struct {
	off int64
	n   int
}

// Log is an adversary trace log: a sequence of committed backup traces.
// The zero value is not usable; construct with CreateFS or OpenFS.
// A Log is safe for concurrent use — concurrent backup sessions
// interleave records under one lock, and committed traces may be read
// while new ones are appended. The end records' fsync is group-committed:
// concurrent sessions' Commits share it.
type Log struct {
	mu       sync.Mutex // ordered before the record log's own locks
	rl       *reclog.Log
	path     string
	readOnly bool
	nextSID  uint32
	backups  []*BackupTrace
	unended  int // sessions replay found begun but never ended
	closed   bool
}

// CreateFS initializes a new, empty trace log file on fsys. It fails if
// the file already exists.
func CreateFS(fsys vfs.FS, path string) (*Log, error) {
	rl, err := reclog.Create(fsys, path, logFormat)
	if err != nil {
		return nil, err
	}
	return &Log{rl: rl, path: path}, nil
}

// OpenFS opens an existing trace log on fsys and replays its records,
// recovering the committed backup traces. A record torn by a mid-append
// crash is discarded by truncating the file back to the last complete
// record; traces whose backup never committed (no end record) are
// dropped. OpenFS is for the log's owner (the repository); replay-only
// consumers must use OpenReadOnlyFS — OpenFS's tail truncation would
// corrupt a log another process is still appending to.
func OpenFS(fsys vfs.FS, path string) (*Log, error) {
	l, _, err := open(fsys, path, reclog.Owner)
	return l, err
}

// OpenReadOnlyFS opens a trace log on fsys for replay without taking
// ownership: the file is opened read-only, an incomplete tail (which may
// simply be another process's in-flight append, not crash damage) is
// ignored rather than truncated, and Begin is refused. A damaged record
// with a whole record after it is not an append in flight: it is
// ErrCorrupt, as for OpenFS. This is the mode
// for inspection tools (`defend attack -repo`, `-dataset repo:`) pointed
// at a repository that may still be live. ReadDataset opens a closed
// log this way and then rejects what a tolerant replay skipped.
func OpenReadOnlyFS(fsys vfs.FS, path string) (*Log, error) {
	l, _, err := open(fsys, path, reclog.ReadOnly)
	return l, err
}

// open replays the log at path into its committed-trace list.
func open(fsys vfs.FS, path string, mode reclog.Mode) (*Log, reclog.Stats, error) {
	l := &Log{path: path, readOnly: mode == reclog.ReadOnly}
	// One in-flight (begun, not yet ended) trace per session id.
	inFlight := make(map[uint32]*BackupTrace)
	rl, st, err := reclog.Open(fsys, path, logFormat, mode, func(r reclog.Record) error {
		sid, n := r.A, int64(len(r.Body))
		corrupt := func(format string, args ...any) error {
			return fmt.Errorf("%w: %s: "+format+" at offset %d", append(append([]any{ErrCorrupt, path}, args...), r.Off)...)
		}
		if sid >= l.nextSID {
			l.nextSID = sid + 1
		}
		t := inFlight[sid]
		switch {
		case r.Kind == kindBegin && n > maxLabel:
			return corrupt("absurd label length %d", n)
		case r.Kind == kindBegin && t != nil:
			return corrupt("duplicate begin for session %d", sid)
		case r.Kind == kindBegin:
			inFlight[sid] = &BackupTrace{Label: string(r.Body), log: l}
		case r.Kind != kindChunks && r.Kind != kindEnd:
			return corrupt("unknown record kind %d", r.Kind)
		case t == nil:
			return corrupt("record of kind %d for unknown session %d", r.Kind, sid)
		case r.Kind == kindChunks && n%refLen != 0:
			return corrupt("chunks payload length %d not a multiple of %d", n, refLen)
		case r.Kind == kindChunks:
			t.extents = append(t.extents, extent{off: r.Off, n: int(n / refLen)})
			t.Chunks += n / refLen
		case n != 8:
			return corrupt("end payload length %d", n)
		case int64(binary.LittleEndian.Uint64(r.Body)) != t.Chunks:
			return corrupt("session %d ended with %d chunks, records hold %d", sid, binary.LittleEndian.Uint64(r.Body), t.Chunks)
		default:
			delete(inFlight, sid)
			l.backups = append(l.backups, t)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	l.rl = rl
	l.unended = len(inFlight)
	return l, st, nil
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
	return l.rl.Close()
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
	s := &Session{t: &BackupTrace{Label: label, log: l}, sid: l.nextSID}
	l.nextSID++
	if _, _, err := l.rl.Append(false, kindBegin, s.sid, uint32(len(label)), []byte(label)); err != nil {
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
	t    *BackupTrace // the trace recorded so far; Commit publishes it
	sid  uint32
	done bool
	buf  []byte // encoded refs not yet spilled to the file
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
	s.t.Chunks += int64(len(refs))
	if len(s.buf) < sessionSpillBytes {
		return nil
	}
	s.t.log.mu.Lock()
	defer s.t.log.mu.Unlock()
	return s.spillLocked()
}

// spillLocked writes the session's buffered windows as one chunks record,
// without syncing. Called with l.mu held.
func (s *Session) spillLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	l := s.t.log
	if l.closed {
		return errors.New("tracelog: log is closed")
	}
	at, _, err := l.rl.Append(false, kindChunks, s.sid, uint32(len(s.buf)), s.buf)
	if err != nil {
		return err
	}
	s.t.extents = append(s.t.extents, extent{off: at, n: len(s.buf) / refLen})
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
	l := s.t.log
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
	binary.LittleEndian.PutUint64(payload[:], uint64(s.t.Chunks))
	_, seq, err := l.rl.Append(true, kindEnd, s.sid, uint32(len(payload)), payload[:])
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.rl.Commit(seq); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.backups = append(l.backups, s.t)
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
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, errors.New("tracelog: log is closed")
	}
	return &traceReader{t: t}, nil
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
	ext int    // next extent to load
	raw []byte // the last record read
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
	body, err := r.t.log.rl.ReadRecord(e.off, int64(e.n*refLen), &r.raw)
	if err != nil {
		return err
	}
	if cap(r.buf) < e.n {
		r.buf = make([]trace.ChunkRef, e.n)
	}
	r.buf = r.buf[:e.n]
	for i := range r.buf {
		p := body[i*refLen:]
		copy(r.buf[i].FP[:], p[:fphash.Size])
		r.buf[i].Size = binary.LittleEndian.Uint32(p[fphash.Size:])
	}
	return nil
}

func (r *traceReader) Close() error {
	r.buf, r.raw = nil, nil
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
	// The rename replaced the file: report success, and leave the
	// directory sync best-effort.
	_ = vfs.SyncDir(fsys, filepath.Dir(path))
	return nil
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
	l, st, err := open(fsys, path, reclog.ReadOnly)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	if st.BytesSkipped > 0 {
		return nil, fmt.Errorf("%w: %s: %d bytes after the last complete record", ErrCorrupt, path, st.BytesSkipped)
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
