package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// Protocol constants. See doc.go for the full frame-format specification.
const (
	// Magic opens every frame: "FDW1", big-endian, the same self-identifying
	// discipline as the .fdc/.fdr/.fdt on-disk formats.
	Magic uint32 = 0x46445731

	// Version is the protocol version negotiated by Hello/HelloOK.
	Version uint32 = 1

	// HeaderLen is the fixed frame header size: magic, type, payload length.
	HeaderLen = 12

	// MaxPayload bounds a frame's payload, mirroring the trace log's replay
	// bound: a corrupt or hostile length field must never drive a
	// multi-gigabyte allocation.
	MaxPayload = 64 << 20

	// MaxName bounds snapshot and tenant names on the wire.
	MaxName = 255

	// MaxToken bounds the Hello auth token.
	MaxToken = 255
)

// Frame types.
const (
	// THello opens a session: protocol version, tenant, auth token.
	THello uint32 = 1
	// THelloOK accepts a session and advertises the server's limits.
	THelloOK uint32 = 2
	// TError reports a failure; for protocol violations the server closes
	// the connection after sending it.
	TError uint32 = 3
	// TBackupBegin starts a backup session for a snapshot name.
	TBackupBegin uint32 = 4
	// TBackupReady acknowledges TBackupBegin.
	TBackupReady uint32 = 5
	// TNegotiate asks "have you seen these fingerprints?" for one window.
	TNegotiate uint32 = 6
	// TNegotiateReply answers with a miss bitmap: set bits are chunks the
	// store wants uploaded.
	TNegotiateReply uint32 = 7
	// TChunkData carries the ciphertexts of one window's missed chunks.
	TChunkData uint32 = 8
	// TWindowAck acknowledges that a window's chunks are in the store.
	TWindowAck uint32 = 9
	// TBackupCommit carries the plaintext recipe entries to seal.
	TBackupCommit uint32 = 10
	// TBackupDone acknowledges a durable snapshot.
	TBackupDone uint32 = 11
	// TRestoreReq asks for a snapshot's bytes.
	TRestoreReq uint32 = 12
	// TRestoreData carries one window of restored plaintext.
	TRestoreData uint32 = 13
	// TRestoreEnd terminates a restore stream with the byte total.
	TRestoreEnd uint32 = 14
	// TSnapshotsReq lists the tenant's snapshots.
	TSnapshotsReq uint32 = 15
	// TSnapshotsReply carries the snapshot list.
	TSnapshotsReply uint32 = 16
	// TDeleteReq deletes one snapshot.
	TDeleteReq uint32 = 17
	// TDeleteOK acknowledges a durable delete.
	TDeleteOK uint32 = 18
	// TStatsReq asks for the tenant's usage accounting.
	TStatsReq uint32 = 19
	// TStatsReply carries the tenant's usage accounting.
	TStatsReply uint32 = 20
)

// TError codes.
const (
	// CodeProtocol is a framing or state-machine violation; the connection
	// is closed after the error frame.
	CodeProtocol uint32 = 1
	// CodeAuth rejects a Hello: unknown tenant or wrong token.
	CodeAuth uint32 = 2
	// CodeNotFound names a snapshot the tenant does not hold.
	CodeNotFound uint32 = 3
	// CodeExists rejects a backup for a name the tenant already holds.
	CodeExists uint32 = 4
	// CodeInternal is a server-side failure (storage error).
	CodeInternal uint32 = 5
	// CodeShutdown rejects new work on a draining server.
	CodeShutdown uint32 = 6
)

// ErrCorruptFrame reports a frame that failed structural validation: bad
// magic, oversized payload, or a checksum mismatch.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// Hello opens a session.
type Hello struct {
	Version uint32
	Tenant  string
	Token   []byte
}

// HelloOK accepts a session and advertises the server's limits, which the
// client must respect: at most WindowChunks refs per TNegotiate, at most
// MaxInflight unacknowledged windows, and no chunk above MaxChunkBytes.
type HelloOK struct {
	Version       uint32
	WindowChunks  uint32
	MaxInflight   uint32
	MaxChunkBytes uint32
}

// ErrorInfo is a TError payload.
type ErrorInfo struct {
	Code uint32
	Msg  string
}

// Error makes a server-reported failure a Go error on the client side.
func (e *ErrorInfo) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}

// SnapshotInfo is one snapshot summary on the wire. Names are
// tenant-relative: the tenant prefix is implicit in the session.
type SnapshotInfo struct {
	Name         string
	CreatedUnix  int64
	LogicalBytes uint64
	Chunks       uint32
}

// TenantUsage is one tenant's accounting: how much it backs up, how much
// of the shared store it actually occupies, and how much of its data
// overlaps other tenants — the cross-user dedup number the paper's threat
// model turns on.
type TenantUsage struct {
	// Tenant is the namespace prefix ("" for un-namespaced snapshots).
	Tenant string
	// Snapshots is the tenant's snapshot count.
	Snapshots uint32
	// LogicalBytes is the pre-dedup sum over the tenant's snapshots.
	LogicalBytes uint64
	// StoredBytes is the ciphertext size of the unique chunks the tenant
	// references (chunk sizes are preserved by the CTR encryption, so this
	// is also the plaintext footprint).
	StoredBytes uint64
	// ExclusiveChunks/ExclusiveBytes count unique chunks referenced by
	// this tenant alone.
	ExclusiveChunks uint64
	ExclusiveBytes  uint64
	// SharedChunks/SharedBytes count unique chunks this tenant shares
	// with at least one other tenant.
	SharedChunks uint64
	SharedBytes  uint64
}

// Conn frames an underlying stream. Send and SendChunkData are safe for
// concurrent use (the client's sender and receiver goroutines both
// write); Recv is not — one goroutine owns the read side at a time. The
// payload returned by Recv is valid only until the next Recv.
type Conn struct {
	// The write side, under wmu: the buffer, and the checksum and scratch
	// of the frame being written.
	wmu  sync.Mutex
	bw   *bufio.Writer
	wcrc uint32
	wtmp [HeaderLen]byte

	br   *bufio.Reader
	hdr  [HeaderLen]byte
	rbuf []byte // reused Recv payload+crc buffer
}

// NewConn wraps rw in frame buffering.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		bw: bufio.NewWriterSize(rw, 64<<10),
		br: bufio.NewReaderSize(rw, 64<<10),
	}
}

// Send writes and flushes one frame.
func (c *Conn) Send(typ uint32, payload []byte) error {
	if err := checkPayload(len(payload)); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.beginFrame(typ, len(payload))
	c.writePiece(payload)
	return c.endFrame()
}

// SendChunkData writes and flushes one TChunkData frame, byte for byte
// the frame Send(TChunkData, AppendChunkData(nil, seq, chunks)) writes,
// but straight from the chunk buffers: the checksum is updated as each
// piece is written, and no payload is assembled. A chunk list whose
// payload would exceed MaxPayload fails before any byte is written.
func (c *Conn) SendChunkData(seq uint32, chunks [][]byte) error {
	n := 8
	for _, ch := range chunks {
		n += 4 + len(ch)
	}
	if err := checkPayload(n); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.beginFrame(TChunkData, n)
	c.writeU32(seq)
	c.writeU32(uint32(len(chunks)))
	for _, ch := range chunks {
		c.writeU32(uint32(len(ch)))
		c.writePiece(ch)
	}
	return c.endFrame()
}

func checkPayload(n int) error {
	if n > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", n, MaxPayload)
	}
	return nil
}

// The frame writers below run under wmu. A bufio.Writer's first error
// sticks and every later write and Flush returns it, so only endFrame
// reports one.

// beginFrame writes the header of a frame of type typ with an n-byte
// payload and starts its checksum.
func (c *Conn) beginFrame(typ uint32, n int) {
	binary.BigEndian.PutUint32(c.wtmp[0:4], Magic)
	binary.BigEndian.PutUint32(c.wtmp[4:8], typ)
	binary.BigEndian.PutUint32(c.wtmp[8:12], uint32(n))
	c.wcrc = 0
	c.writePiece(c.wtmp[:HeaderLen])
}

// writePiece writes p as the next bytes of the frame.
func (c *Conn) writePiece(p []byte) {
	c.wcrc = crc32.Update(c.wcrc, crc32.IEEETable, p)
	_, _ = c.bw.Write(p)
}

func (c *Conn) writeU32(v uint32) {
	binary.BigEndian.PutUint32(c.wtmp[:4], v)
	c.writePiece(c.wtmp[:4])
}

// endFrame writes the checksum trailer and flushes the frame.
func (c *Conn) endFrame() error {
	binary.BigEndian.PutUint32(c.wtmp[:4], c.wcrc)
	_, _ = c.bw.Write(c.wtmp[:4])
	return c.bw.Flush()
}

// Recv reads one frame, validating magic, length, and checksum.
func (c *Conn) Recv() (typ uint32, payload []byte, err error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint32(c.hdr[0:4]) != Magic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorruptFrame)
	}
	typ = binary.BigEndian.Uint32(c.hdr[4:8])
	n := binary.BigEndian.Uint32(c.hdr[8:12])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrCorruptFrame, n, MaxPayload)
	}
	buf, err := c.readPayload(int(n) + 4)
	if err != nil {
		return 0, nil, err
	}
	crc := crc32.ChecksumIEEE(c.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
	if crc != binary.BigEndian.Uint32(buf[n:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return typ, buf[:n], nil
}

// recvStep is the least the receive buffer grows by at a time.
const recvStep = 64 << 10

// recvGrowth is the factor by which the receive buffer grows at a time.
// A larger factor wastes less on an honest frame's smaller buffers, a
// smaller one lets a lying header allocate less ahead of its bytes.
const recvGrowth = 8

// readPayload reads the next need bytes (a frame's payload and checksum)
// into the reused receive buffer. The buffer grows only once the bytes
// already fill it, never to the length a header claims up front: to the
// smallest of need, need/8, need/64, ... that holds recvStep more. So an
// honest frame's buffers add up to at most 8/7 of its length, and a frame
// that lies about its length makes Recv allocate at most about ten times
// what its peer really sent, plus ten steps.
func (c *Conn) readPayload(need int) ([]byte, error) {
	buf := c.rbuf[:0]
	for len(buf) < need {
		if len(buf) == cap(buf) {
			size := need
			for size/recvGrowth >= len(buf)+recvStep {
				size /= recvGrowth
			}
			grown := make([]byte, len(buf), size)
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(c.br, buf[len(buf):min(cap(buf), need)])
		buf = buf[:len(buf)+k]
		if err != nil {
			c.rbuf = buf[:0]
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	c.rbuf = buf
	return buf, nil
}

// ---- payload encoding ----
//
// Integers are big-endian. Strings and tokens are u8-length-prefixed;
// chunk ciphertexts are u32-length-prefixed.

type decoder struct {
	p   []byte
	off int
}

var errShort = fmt.Errorf("%w: truncated payload", ErrCorruptFrame)

func (d *decoder) u8() (byte, error) {
	if d.off+1 > len(d.p) {
		return 0, errShort
	}
	v := d.p[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.p) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.p) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.p) {
		return nil, errShort
	}
	v := d.p[d.off : d.off+n]
	d.off += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u8()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// done fails if the payload has trailing bytes — a frame must parse
// exactly, so a length-confused encoder surfaces as corruption, not as
// silently dropped fields.
func (d *decoder) done() error {
	if d.off != len(d.p) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(d.p)-d.off)
	}
	return nil
}

func appendStr(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

func checkName(s string) error {
	if s == "" || len(s) > MaxName {
		return fmt.Errorf("wire: name length %d out of range [1, %d]", len(s), MaxName)
	}
	return nil
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if err := checkName(h.Tenant); err != nil {
		return nil, err
	}
	if len(h.Token) > MaxToken {
		return nil, fmt.Errorf("wire: token length %d exceeds %d", len(h.Token), MaxToken)
	}
	dst = binary.BigEndian.AppendUint32(dst, h.Version)
	dst = appendStr(dst, h.Tenant)
	dst = append(dst, byte(len(h.Token)))
	return append(dst, h.Token...), nil
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (Hello, error) {
	d := decoder{p: p}
	var h Hello
	var err error
	if h.Version, err = d.u32(); err != nil {
		return Hello{}, err
	}
	if h.Tenant, err = d.str(); err != nil {
		return Hello{}, err
	}
	if h.Tenant == "" {
		return Hello{}, fmt.Errorf("%w: empty tenant", ErrCorruptFrame)
	}
	n, err := d.u8()
	if err != nil {
		return Hello{}, err
	}
	tok, err := d.bytes(int(n))
	if err != nil {
		return Hello{}, err
	}
	h.Token = append([]byte(nil), tok...)
	return h, d.done()
}

// AppendHelloOK encodes a HelloOK payload.
func AppendHelloOK(dst []byte, h HelloOK) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Version)
	dst = binary.BigEndian.AppendUint32(dst, h.WindowChunks)
	dst = binary.BigEndian.AppendUint32(dst, h.MaxInflight)
	return binary.BigEndian.AppendUint32(dst, h.MaxChunkBytes)
}

// ParseHelloOK decodes a HelloOK payload.
func ParseHelloOK(p []byte) (HelloOK, error) {
	d := decoder{p: p}
	var h HelloOK
	var err error
	if h.Version, err = d.u32(); err != nil {
		return HelloOK{}, err
	}
	if h.WindowChunks, err = d.u32(); err != nil {
		return HelloOK{}, err
	}
	if h.MaxInflight, err = d.u32(); err != nil {
		return HelloOK{}, err
	}
	if h.MaxChunkBytes, err = d.u32(); err != nil {
		return HelloOK{}, err
	}
	return h, d.done()
}

// AppendError encodes a TError payload. Messages longer than MaxName are
// truncated rather than rejected: the error path must not fail.
func AppendError(dst []byte, code uint32, msg string) []byte {
	if len(msg) > MaxName {
		msg = msg[:MaxName]
	}
	dst = binary.BigEndian.AppendUint32(dst, code)
	return appendStr(dst, msg)
}

// ParseError decodes a TError payload.
func ParseError(p []byte) (ErrorInfo, error) {
	d := decoder{p: p}
	var e ErrorInfo
	var err error
	if e.Code, err = d.u32(); err != nil {
		return ErrorInfo{}, err
	}
	if e.Msg, err = d.str(); err != nil {
		return ErrorInfo{}, err
	}
	return e, d.done()
}

// AppendName encodes the single-name payloads (TBackupBegin, TRestoreReq,
// TDeleteReq).
func AppendName(dst []byte, name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	return appendStr(dst, name), nil
}

// ParseName decodes a single-name payload.
func ParseName(p []byte) (string, error) {
	d := decoder{p: p}
	name, err := d.str()
	if err != nil {
		return "", err
	}
	if name == "" {
		return "", fmt.Errorf("%w: empty name", ErrCorruptFrame)
	}
	return name, d.done()
}

// AppendNegotiate encodes a TNegotiate payload: the window sequence number
// and the window's (ciphertext fingerprint, ciphertext size) refs in
// upload order — exactly the record the negotiation transcript leaks.
func AppendNegotiate(dst []byte, seq uint32, refs []trace.ChunkRef) []byte {
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(refs)))
	for _, r := range refs {
		dst = append(dst, r.FP[:]...)
		dst = binary.BigEndian.AppendUint32(dst, r.Size)
	}
	return dst
}

// ParseNegotiate decodes a TNegotiate payload into refs (reused when its
// capacity suffices).
func ParseNegotiate(p []byte, refs []trace.ChunkRef) (seq uint32, out []trace.ChunkRef, err error) {
	d := decoder{p: p}
	if seq, err = d.u32(); err != nil {
		return 0, nil, err
	}
	n, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	const refLen = fphash.Size + 4
	if uint64(n)*refLen != uint64(len(p)-d.off) {
		return 0, nil, fmt.Errorf("%w: ref count %d does not match payload", ErrCorruptFrame, n)
	}
	out = refs[:0]
	for i := uint32(0); i < n; i++ {
		b, _ := d.bytes(refLen)
		var r trace.ChunkRef
		copy(r.FP[:], b[:fphash.Size])
		r.Size = binary.BigEndian.Uint32(b[fphash.Size:])
		out = append(out, r)
	}
	return seq, out, d.done()
}

// AppendNegotiateReply encodes a TNegotiateReply payload: the window
// sequence number, the ref count, and a bitmap with bit i set when the
// store is missing ref i (the client must upload it).
func AppendNegotiateReply(dst []byte, seq uint32, miss []bool) []byte {
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(miss)))
	bitmap := make([]byte, (len(miss)+7)/8)
	for i, m := range miss {
		if m {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	return append(dst, bitmap...)
}

// ParseNegotiateReply decodes a TNegotiateReply payload into miss (reused
// when its capacity suffices).
func ParseNegotiateReply(p []byte, miss []bool) (seq uint32, out []bool, err error) {
	d := decoder{p: p}
	if seq, err = d.u32(); err != nil {
		return 0, nil, err
	}
	n, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if n > MaxPayload { // defensive: bitmap bound implies n is sane anyway
		return 0, nil, fmt.Errorf("%w: miss count %d", ErrCorruptFrame, n)
	}
	bitmap, err := d.bytes(int(n+7) / 8)
	if err != nil {
		return 0, nil, err
	}
	if n%8 != 0 && bitmap[len(bitmap)-1]>>(n%8) != 0 {
		return 0, nil, fmt.Errorf("%w: miss bitmap padding bits set", ErrCorruptFrame)
	}
	out = miss[:0]
	for i := uint32(0); i < n; i++ {
		out = append(out, bitmap[i/8]&(1<<(i%8)) != 0)
	}
	return seq, out, d.done()
}

// AppendChunkData encodes a TChunkData payload: the window sequence number
// and the missed chunks' ciphertexts, in miss-bitmap order.
func AppendChunkData(dst []byte, seq uint32, chunks [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(chunks)))
	for _, c := range chunks {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// ParseChunkData decodes a TChunkData payload. The returned chunk slices
// alias the payload: they are valid only until the next Recv.
func ParseChunkData(p []byte, chunks [][]byte) (seq uint32, out [][]byte, err error) {
	d := decoder{p: p}
	if seq, err = d.u32(); err != nil {
		return 0, nil, err
	}
	n, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if n > MaxPayload/4 {
		return 0, nil, fmt.Errorf("%w: chunk count %d", ErrCorruptFrame, n)
	}
	out = chunks[:0]
	for i := uint32(0); i < n; i++ {
		sz, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		b, err := d.bytes(int(sz))
		if err != nil {
			return 0, nil, err
		}
		out = append(out, b)
	}
	return seq, out, d.done()
}

// AppendSeq encodes the bare-sequence payloads (TWindowAck).
func AppendSeq(dst []byte, seq uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, seq)
}

// ParseSeq decodes a bare-sequence payload.
func ParseSeq(p []byte) (uint32, error) {
	d := decoder{p: p}
	seq, err := d.u32()
	if err != nil {
		return 0, err
	}
	return seq, d.done()
}

// MaxCommitEntries is how many recipe entries fit one TBackupCommit frame.
const MaxCommitEntries = (MaxPayload - 4) / (fphash.Size + mle.KeySize + 4)

// AppendCommit encodes a TBackupCommit payload: the snapshot's plaintext
// recipe entries in chunk order. They cross only the authenticated session
// (the transport is trusted exactly as far as the token is); the server
// seals them under the repository key.
func AppendCommit(dst []byte, entries []mle.RecipeEntry) ([]byte, error) {
	if len(entries) > MaxCommitEntries {
		return nil, fmt.Errorf("wire: %d recipe entries exceed the per-frame limit %d", len(entries), MaxCommitEntries)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = append(dst, e.Fingerprint[:]...)
		dst = append(dst, e.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, e.Size)
	}
	return dst, nil
}

// ParseCommit decodes a TBackupCommit payload.
func ParseCommit(p []byte) ([]mle.RecipeEntry, error) {
	d := decoder{p: p}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	const entryLen = fphash.Size + mle.KeySize + 4
	if uint64(n)*entryLen != uint64(len(p)-d.off) {
		return nil, fmt.Errorf("%w: entry count %d does not match payload", ErrCorruptFrame, n)
	}
	entries := make([]mle.RecipeEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		b, _ := d.bytes(entryLen)
		var e mle.RecipeEntry
		copy(e.Fingerprint[:], b[:fphash.Size])
		copy(e.Key[:], b[fphash.Size:fphash.Size+mle.KeySize])
		e.Size = binary.BigEndian.Uint32(b[fphash.Size+mle.KeySize:])
		entries = append(entries, e)
	}
	return entries, d.done()
}

// AppendSnapshotInfo encodes the TBackupDone payload.
func AppendSnapshotInfo(dst []byte, s SnapshotInfo) []byte {
	dst = appendStr(dst, s.Name)
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.CreatedUnix))
	dst = binary.BigEndian.AppendUint64(dst, s.LogicalBytes)
	return binary.BigEndian.AppendUint32(dst, s.Chunks)
}

func parseSnapshotInfo(d *decoder) (SnapshotInfo, error) {
	var s SnapshotInfo
	var err error
	if s.Name, err = d.str(); err != nil {
		return SnapshotInfo{}, err
	}
	created, err := d.u64()
	if err != nil {
		return SnapshotInfo{}, err
	}
	if created > math.MaxInt64 {
		return SnapshotInfo{}, fmt.Errorf("%w: timestamp overflow", ErrCorruptFrame)
	}
	s.CreatedUnix = int64(created)
	if s.LogicalBytes, err = d.u64(); err != nil {
		return SnapshotInfo{}, err
	}
	if s.Chunks, err = d.u32(); err != nil {
		return SnapshotInfo{}, err
	}
	return s, nil
}

// ParseSnapshotInfo decodes a TBackupDone payload.
func ParseSnapshotInfo(p []byte) (SnapshotInfo, error) {
	d := decoder{p: p}
	s, err := parseSnapshotInfo(&d)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return s, d.done()
}

// AppendSnapshotList encodes a TSnapshotsReply payload.
func AppendSnapshotList(dst []byte, list []SnapshotInfo) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(list)))
	for _, s := range list {
		dst = AppendSnapshotInfo(dst, s)
	}
	return dst
}

// ParseSnapshotList decodes a TSnapshotsReply payload.
func ParseSnapshotList(p []byte) ([]SnapshotInfo, error) {
	d := decoder{p: p}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Each entry is at least a name length, two u64 and a u32 on the
	// wire, so a lying count cannot size the list past the payload.
	if uint64(n)*(1+8+8+4) > uint64(len(p)-d.off) {
		return nil, fmt.Errorf("%w: snapshot count %d", ErrCorruptFrame, n)
	}
	list := make([]SnapshotInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := parseSnapshotInfo(&d)
		if err != nil {
			return nil, err
		}
		list = append(list, s)
	}
	return list, d.done()
}

// AppendU64 encodes the TRestoreEnd payload (total restored bytes).
func AppendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// ParseU64 decodes a TRestoreEnd payload.
func ParseU64(p []byte) (uint64, error) {
	d := decoder{p: p}
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	return v, d.done()
}

// AppendTenantUsage encodes a TStatsReply payload.
func AppendTenantUsage(dst []byte, u TenantUsage) []byte {
	dst = appendStr(dst, u.Tenant)
	dst = binary.BigEndian.AppendUint32(dst, u.Snapshots)
	dst = binary.BigEndian.AppendUint64(dst, u.LogicalBytes)
	dst = binary.BigEndian.AppendUint64(dst, u.StoredBytes)
	dst = binary.BigEndian.AppendUint64(dst, u.ExclusiveChunks)
	dst = binary.BigEndian.AppendUint64(dst, u.ExclusiveBytes)
	dst = binary.BigEndian.AppendUint64(dst, u.SharedChunks)
	return binary.BigEndian.AppendUint64(dst, u.SharedBytes)
}

// ParseTenantUsage decodes a TStatsReply payload.
func ParseTenantUsage(p []byte) (TenantUsage, error) {
	d := decoder{p: p}
	var u TenantUsage
	var err error
	if u.Tenant, err = d.str(); err != nil {
		return TenantUsage{}, err
	}
	if u.Snapshots, err = d.u32(); err != nil {
		return TenantUsage{}, err
	}
	for _, dst := range []*uint64{&u.LogicalBytes, &u.StoredBytes, &u.ExclusiveChunks, &u.ExclusiveBytes, &u.SharedChunks, &u.SharedBytes} {
		if *dst, err = d.u64(); err != nil {
			return TenantUsage{}, err
		}
	}
	return u, d.done()
}
