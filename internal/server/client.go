package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/dedup"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// DialConfig configures a Client session. Chunking and Workers
// configure the client's backup pipeline — dedup's, under
// convergent encryption — and are validated exactly as dedup.NewClient
// validates them, before Dial connects.
type DialConfig struct {
	// Tenant is the session's namespace; required.
	Tenant string
	// Token is the tenant's bearer token (ignored by open servers).
	Token []byte
	// Chunking sets the content-defined chunking parameters
	// (chunker.DefaultParams if zero). They must match the parameters the
	// repository's other clients use, or cross-client dedup degrades to
	// nothing — the server never sees plaintext, so it cannot check.
	Chunking chunker.Params
	// Workers is the size of each backup's encrypt+fingerprint worker
	// pool (GOMAXPROCS if 0), as dedup.Config.Workers.
	Workers int
	// DialTimeout bounds connect + handshake (30s if zero).
	DialTimeout time.Duration
}

// Client is the network counterpart of the in-process backup client, and
// runs the same backup pipeline: a dedup.Client (chunk, convergently
// encrypt, window) whose sink is the wire — each upload window becomes a
// negotiation round with the server, which asks for the chunks its store
// is missing, and the recipe goes to the server to seal. Restore,
// Snapshots, Delete and Stats complete the surface over one authenticated
// TCP session.
//
// After each committed backup the recipe the client just sent becomes
// the pipeline's parent (dedup.Client.SetParent), so the session's next
// backup encrypts only what its last one did not hold: a chunk whose key
// is in that recipe is negotiated with the fingerprint and size its
// ciphertext has, and encrypted only if the server answers miss. The
// client chunked that recipe itself, under its own parameters, so the
// next backup also cuts where the recipe predicts and scans only where
// the prediction fails. What the server sees — negotiations, uploads, the
// recipe — is the same as without the parent. The session's first backup
// has no parent.
//
// A Client is NOT safe for concurrent use: it multiplexes one connection
// and runs one operation at a time (operations serialize internally).
// Run one Client per goroutine for concurrent sessions — that is the
// multi-tenant architecture the server is built for. Only convergent
// encryption (EncConvergent) goes over the wire; the server-aided and
// MinHash schemes remain in-process.
//
// After a transport or mid-pipeline failure the session state is
// unrecoverable and the Client marks itself broken: further operations
// fail and the caller re-dials. Clean server-side rejections (name
// exists, not found, auth) leave the session usable.
type Client struct {
	nc     net.Conn
	wc     *wire.Conn
	limits wire.HelloOK
	pipe   *dedup.Client // the backup pipeline, uploading to sink
	sink   wireSink

	mu     sync.Mutex
	broken bool
	closed bool
}

// Dial validates the pipeline configuration, then connects,
// authenticates, and negotiates limits with a server.
func Dial(addr string, cfg DialConfig) (*Client, error) {
	if err := validTenant(cfg.Tenant); err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	c := &Client{}
	pipe, err := dedup.NewSinkClient(&c.sink, dedup.Config{
		Chunking:   cfg.Chunking,
		Workers:    cfg.Workers,
		Encryption: dedup.EncConvergent,
	})
	if err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	c.pipe = pipe
	if cfg.Chunking == (chunker.Params{}) {
		cfg.Chunking = chunker.DefaultParams()
	}
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = handshakeTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c.nc, c.wc = nc, wire.NewConn(nc)
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		nc.Close()
		return nil, err
	}
	hello, err := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: cfg.Tenant, Token: cfg.Token})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.wc.Send(wire.THello, hello); err != nil {
		nc.Close()
		return nil, err
	}
	p, err := c.expect(wire.THelloOK)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if c.limits, err = wire.ParseHelloOK(p); err != nil {
		nc.Close()
		return nil, err
	}
	if c.limits.Version != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("server: protocol version %d, want %d", c.limits.Version, wire.Version)
	}
	if uint32(cfg.Chunking.Max) > c.limits.MaxChunkBytes {
		nc.Close()
		return nil, fmt.Errorf("server: chunking max %d exceeds the server's chunk limit %d",
			cfg.Chunking.Max, c.limits.MaxChunkBytes)
	}
	if c.limits.WindowChunks == 0 || c.limits.MaxInflight == 0 {
		nc.Close()
		return nil, fmt.Errorf("server: unusable window limits (window %d, inflight %d)",
			c.limits.WindowChunks, c.limits.MaxInflight)
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the connection. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// begin claims the client for one operation.
func (c *Client) begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("server: client is closed")
	}
	if c.broken {
		return errors.New("server: session is broken after a previous failure; re-dial")
	}
	return nil
}

func (c *Client) markBroken() {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.nc.Close()
}

// expect reads the next frame, surfacing TError as a Go error and any
// other type than want as a protocol error.
func (c *Client) expect(want uint32) ([]byte, error) {
	typ, p, err := c.wc.Recv()
	if err != nil {
		return nil, err
	}
	if typ == wire.TError {
		e, perr := wire.ParseError(p)
		if perr != nil {
			return nil, perr
		}
		return nil, remoteError(e)
	}
	if typ != want {
		return nil, fmt.Errorf("server: unexpected frame type %d, want %d", typ, want)
	}
	return p, nil
}

// remoteError maps a server-reported error to a client-side error that
// supports errors.Is against the repository sentinels.
func remoteError(e wire.ErrorInfo) error {
	switch e.Code {
	case wire.CodeNotFound:
		return fmt.Errorf("%w (%s)", dedup.ErrSnapshotNotFound, e.Msg)
	case wire.CodeExists:
		return fmt.Errorf("%w (%s)", dedup.ErrSnapshotExists, e.Msg)
	default:
		err := e
		return &err
	}
}

// watchCtx poisons the connection's deadlines when ctx fires, so blocking
// frame I/O unblocks promptly. The returned stop func must be called
// before the operation ends; it reports whether the ctx fired.
func (c *Client) watchCtx(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	stopped := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-ctx.Done():
			fired <- true
			c.nc.SetDeadline(time.Unix(1, 0))
		case <-stopped:
			fired <- false
		}
	}()
	return func() bool {
		close(stopped)
		return <-fired
	}
}

// cwindow is one in-flight backup window on the client side: the refs it
// negotiated, and each chunk's put — its ciphertext or, for a
// parent-table hit, its plaintext, in the chunk's pooled buffer — until
// the server's reply is handled.
type cwindow struct {
	refs []trace.ChunkRef
	puts []dedup.PutChunk
}

// releaseBuf hands a put's pooled buffer back to the chunker pool. Tests
// swap it to poison each buffer as it goes back.
var releaseBuf = func(p dedup.PutChunk) { p.Buf.Release() }

// release releases every put's buffer; the caller is the only goroutine
// that can still read them.
func release(puts []dedup.PutChunk) {
	for _, p := range puts {
		releaseBuf(p)
	}
}

// backupShared is the state the Backup sender (the pipeline's consumer,
// through wireSink) and receiver goroutines share.
type backupShared struct {
	c       *Client
	mu      sync.Mutex
	pending map[uint32]*cwindow

	// slots bounds in-flight (unacknowledged) windows: the sender
	// acquires before TNegotiate, the receiver releases on TWindowAck.
	slots chan struct{}

	doneCh   chan wire.SnapshotInfo // TBackupDone payload
	recvDone chan struct{}          // receiver exited
	err      error                  // first receiver error, set before recvDone closes

	// Sender-only: the next window's sequence number and the reused
	// TNegotiate payload.
	seq    uint32
	negPay []byte
}

// recvErr is why the receiver exited; valid once recvDone is closed.
func (s *backupShared) recvErr() error {
	if s.err != nil {
		return s.err
	}
	return errors.New("server: connection closed during backup")
}

// wireSink is the backup pipeline's sink: it puts each upload window on
// the wire as negotiation rounds of the backup in progress, cur.
type wireSink struct{ cur *backupShared }

// PutBatchOwned splits the window into negotiation windows and, for each,
// takes an in-flight slot, records the refs and puts the receiver answers
// the server's reply from, and sends TNegotiate. A parent-table hit is
// negotiated with the fingerprint and size its ciphertext has, exactly
// like an encrypted chunk. Each put's buffer is kept until the reply is
// handled: until the window's TChunkData frame is written, or the chunk
// is found held; a missed hit's plaintext is encrypted in place for that
// frame. chunks itself is only borrowed; on an error return the buffers
// not yet recorded are released here, and the recorded ones once the
// receiver has exited.
func (w *wireSink) PutBatchOwned(chunks []dedup.PutChunk) ([]bool, error) {
	s := w.cur
	for len(chunks) > 0 {
		part := chunks[:windowLen(chunks, int(s.c.limits.WindowChunks))]
		win := &cwindow{refs: make([]trace.ChunkRef, len(part)), puts: make([]dedup.PutChunk, len(part))}
		copy(win.puts, part)
		for i, ch := range part {
			win.refs[i] = trace.ChunkRef{FP: ch.FP, Size: chunkSize(ch)}
		}
		select {
		case s.slots <- struct{}{}:
		case <-s.recvDone:
			release(chunks)
			return nil, s.recvErr()
		}
		s.mu.Lock()
		s.pending[s.seq] = win
		s.mu.Unlock()
		chunks = chunks[len(part):]
		s.negPay = wire.AppendNegotiate(s.negPay[:0], s.seq, win.refs)
		s.seq++
		if err := s.c.wc.Send(wire.TNegotiate, s.negPay); err != nil {
			release(chunks)
			return nil, err
		}
	}
	return nil, nil
}

// chunkSize is the size of ch's ciphertext, sent or not.
func chunkSize(ch dedup.PutChunk) uint32 {
	if ch.Ref {
		return ch.Size
	}
	return uint32(len(ch.Data))
}

// windowLen is how many of chunks the next negotiation window takes: at
// most the server's window limit, and no more than one TChunkData frame
// holds should the server miss them all — its payload is 8 bytes plus 4
// and the ciphertext per chunk (wire.AppendChunkData). A window always
// takes at least one chunk.
func windowLen(chunks []dedup.PutChunk, limit int) int {
	n := min(len(chunks), limit)
	payload := 8
	for i, ch := range chunks[:n] {
		if payload += 4 + int(chunkSize(ch)); payload > wire.MaxPayload && i > 0 {
			return i
		}
	}
	return n
}

// recvLoop is Backup's receiver: it answers negotiate replies with the
// missed ciphertexts, retires acknowledged windows, and terminates on
// TBackupDone or any error.
func (s *backupShared) recvLoop() {
	defer close(s.recvDone)
	var missed [][]byte
	var miss []bool
	fail := func(err error) { s.err = err }
	for {
		typ, p, err := s.c.wc.Recv()
		if err != nil {
			fail(err)
			return
		}
		switch typ {
		case wire.TNegotiateReply:
			seq, m, err := wire.ParseNegotiateReply(p, miss)
			miss = m[:0]
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			w := s.pending[seq]
			s.mu.Unlock()
			// puts is nil once the window's reply is handled.
			if w == nil || w.puts == nil || len(m) != len(w.refs) {
				fail(fmt.Errorf("server: negotiate reply for unknown window %d", seq))
				return
			}
			for i := range w.puts {
				p := &w.puts[i]
				if !m[i] {
					continue
				}
				if p.Ref {
					// A parent-table hit the server no longer holds (GC
					// reclaimed it since the parent backup): encrypt it now,
					// in place, as the pipeline would have. The wire carries
					// only convergent encryption, so its key is its SHA-256.
					plain := p.Buf.Data
					mle.EncryptDeterministicInto(mle.ConvergentKey(plain), plain, plain)
					p.Data = plain
				}
				missed = append(missed, p.Data)
			}
			// Every buffer is dead once the frame is written: TCP owns
			// delivery, and a lost connection fails the whole backup. A
			// failed write leaves the window pending, so its buffers are
			// released once the receiver has exited.
			err = s.c.wc.SendChunkData(seq, missed)
			clear(missed)
			missed = missed[:0]
			if err != nil {
				fail(err)
				return
			}
			release(w.puts)
			w.puts = nil
		case wire.TWindowAck:
			seq, err := wire.ParseSeq(p)
			if err != nil {
				fail(err)
				return
			}
			// A window is acknowledged only after its reply; one acked
			// early stays pending, so its plaintexts are released on exit.
			s.mu.Lock()
			w, ok := s.pending[seq]
			if ok = ok && w.puts == nil; ok {
				delete(s.pending, seq)
			}
			s.mu.Unlock()
			if !ok {
				fail(fmt.Errorf("server: ack for unknown window %d", seq))
				return
			}
			<-s.slots
		case wire.TBackupDone:
			info, err := wire.ParseSnapshotInfo(p)
			if err != nil {
				fail(err)
				return
			}
			s.doneCh <- info
			return
		case wire.TError:
			e, perr := wire.ParseError(p)
			if perr != nil {
				fail(perr)
			} else {
				fail(remoteError(e))
			}
			return
		default:
			fail(fmt.Errorf("server: unexpected frame type %d during backup", typ))
			return
		}
	}
}

// Backup runs the in-process backup pipeline (dedup.Client.BackupContext)
// over src with the wire as its sink: src is chunked on a producer
// goroutine and convergently encrypted by the Workers pool (all but the
// session's parent-table hits; see Client), each upload window's
// fingerprints are negotiated with the server, only the chunks the shared
// store is missing are uploaded, and the recipe is committed —
// Backup returns once the server acknowledges the snapshot durable. Up to
// the server-advertised in-flight limit of windows may be unacknowledged
// at once, so encryption, negotiation, and upload overlap.
//
// Cancelling ctx abandons the session promptly, even while a read of src
// is stalled: the connection is closed and the server aborts, so no
// snapshot appears, and every pooled chunk buffer is handed back.
//
// If Backup returns an error, the chunking goroutine may still be
// completing one final in-progress read of src before it shuts down. Do
// not reuse, reset, or close a non-thread-safe src immediately after a
// failed Backup; readers that tolerate concurrent use (*os.File) are
// unaffected.
func (c *Client) Backup(ctx context.Context, name string, src io.Reader) (wire.SnapshotInfo, error) {
	if err := c.begin(); err != nil {
		return wire.SnapshotInfo{}, err
	}
	if _, err := wire.AppendName(nil, name); err != nil {
		return wire.SnapshotInfo{}, err
	}
	ctxFired := c.watchCtx(ctx)
	info, broken, err := c.backup(ctx, name, src)
	// The pipeline may see the cancellation before the watcher does.
	if ctxFired() || (err != nil && ctx.Err() != nil) {
		err = ctx.Err()
		broken = true
	} else if err == nil {
		// The deadline poison races the op only when ctx fired; clear any
		// leftover deadline state for the next operation.
		_ = c.nc.SetDeadline(time.Time{})
	}
	if broken && err != nil {
		c.markBroken()
	}
	return info, err
}

// backup is Backup's body; broken reports whether the session state is
// unrecoverable (mid-pipeline failure) as opposed to a clean rejection.
func (c *Client) backup(ctx context.Context, name string, src io.Reader) (info wire.SnapshotInfo, broken bool, err error) {
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return wire.SnapshotInfo{}, false, err
	}
	if err := c.wc.Send(wire.TBackupBegin, payload); err != nil {
		return wire.SnapshotInfo{}, true, err
	}
	if _, err := c.expect(wire.TBackupReady); err != nil {
		// A clean rejection (exists, shutdown) leaves the conn synced.
		var ei *wire.ErrorInfo
		clean := errors.Is(err, dedup.ErrSnapshotExists) || errors.As(err, &ei)
		return wire.SnapshotInfo{}, !clean, err
	}

	shared := &backupShared{
		c:        c,
		pending:  make(map[uint32]*cwindow),
		slots:    make(chan struct{}, c.limits.MaxInflight),
		doneCh:   make(chan wire.SnapshotInfo, 1),
		recvDone: make(chan struct{}),
	}
	go shared.recvLoop()
	// From here on every failure is mid-pipeline: the receiver may have
	// frames in flight, so the session cannot be reused.
	c.sink.cur = shared
	info, err = c.runBackupPipeline(ctx, src, shared)
	c.sink.cur = nil
	if err != nil {
		// Unblock and collect the receiver before returning: markBroken
		// closes the conn, which ends it. Only then are the buffers of
		// windows whose reply it never handled released: until it exits,
		// the receiver may be encrypting or sending them.
		c.nc.Close()
		<-shared.recvDone
		for _, w := range shared.pending {
			release(w.puts)
		}
		return wire.SnapshotInfo{}, true, err
	}
	return info, false, nil
}

// runBackupPipeline is the sender side: the pipeline negotiates every
// window through the sink, then the client waits out the in-flight windows
// and commits the recipe.
func (c *Client) runBackupPipeline(ctx context.Context, src io.Reader, shared *backupShared) (wire.SnapshotInfo, error) {
	recipe, err := c.pipe.BackupContext(ctx, src)
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	// Quiesce: once the sender holds every slot, every window is
	// acknowledged and the store holds all our chunks.
	for i := 0; i < cap(shared.slots); i++ {
		select {
		case shared.slots <- struct{}{}:
		case <-shared.recvDone:
			return wire.SnapshotInfo{}, shared.recvErr()
		}
	}
	commit, err := wire.AppendCommit(nil, recipe.Entries)
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	if err := c.wc.Send(wire.TBackupCommit, commit); err != nil {
		return wire.SnapshotInfo{}, err
	}
	// The receiver delivers BackupDone and exits in one step, so both
	// channels can be ready at once: the result decides, not the select.
	<-shared.recvDone
	select {
	case info := <-shared.doneCh:
		c.pipe.SetParent(recipe, true)
		return info, nil
	default:
		return wire.SnapshotInfo{}, shared.recvErr()
	}
}

// Restore streams the named snapshot's plaintext to w. Bytes written to w
// before a mid-stream error stay written (a strict prefix), matching the
// in-process Restore contract.
func (c *Client) Restore(ctx context.Context, name string, w io.Writer) error {
	if err := c.begin(); err != nil {
		return err
	}
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return err
	}
	ctxFired := c.watchCtx(ctx)
	broken, err := c.restore(payload, w)
	if ctxFired() {
		err = ctx.Err()
		broken = true
	} else if err == nil {
		_ = c.nc.SetDeadline(time.Time{})
	}
	if broken && err != nil {
		c.markBroken()
	}
	return err
}

func (c *Client) restore(reqPayload []byte, w io.Writer) (broken bool, err error) {
	if err := c.wc.Send(wire.TRestoreReq, reqPayload); err != nil {
		return true, err
	}
	var total uint64
	for {
		typ, p, rerr := c.wc.Recv()
		if rerr != nil {
			return true, rerr
		}
		switch typ {
		case wire.TRestoreData:
			total += uint64(len(p))
			if _, werr := w.Write(p); werr != nil {
				// The local sink failed mid-stream; the conn still has
				// frames in flight we will not consume.
				return true, werr
			}
		case wire.TRestoreEnd:
			want, perr := wire.ParseU64(p)
			if perr != nil {
				return true, perr
			}
			if want != total {
				return true, fmt.Errorf("server: restore length %d, server reported %d", total, want)
			}
			return false, nil
		case wire.TError:
			e, perr := wire.ParseError(p)
			if perr != nil {
				return true, perr
			}
			// The error frame terminates the stream cleanly; the session
			// stays usable.
			return false, remoteError(e)
		default:
			return true, fmt.Errorf("server: unexpected frame type %d during restore", typ)
		}
	}
}

// Snapshots lists the tenant's snapshots (tenant-relative names).
func (c *Client) Snapshots() ([]wire.SnapshotInfo, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	if err := c.wc.Send(wire.TSnapshotsReq, nil); err != nil {
		c.markBroken()
		return nil, err
	}
	p, err := c.expect(wire.TSnapshotsReply)
	if err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return nil, err
	}
	return wire.ParseSnapshotList(p)
}

// Delete removes the tenant's named snapshot durably.
func (c *Client) Delete(name string) error {
	if err := c.begin(); err != nil {
		return err
	}
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		return err
	}
	if err := c.wc.Send(wire.TDeleteReq, payload); err != nil {
		c.markBroken()
		return err
	}
	if _, err := c.expect(wire.TDeleteOK); err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return err
	}
	return nil
}

// Stats reports the tenant's server-side accounting.
func (c *Client) Stats() (wire.TenantUsage, error) {
	if err := c.begin(); err != nil {
		return wire.TenantUsage{}, err
	}
	if err := c.wc.Send(wire.TStatsReq, nil); err != nil {
		c.markBroken()
		return wire.TenantUsage{}, err
	}
	p, err := c.expect(wire.TStatsReply)
	if err != nil {
		if !isRemote(err) {
			c.markBroken()
		}
		return wire.TenantUsage{}, err
	}
	return wire.ParseTenantUsage(p)
}

// isRemote reports whether err is a server-reported (clean) error rather
// than a transport/protocol failure.
func isRemote(err error) bool {
	var ei *wire.ErrorInfo
	return errors.As(err, &ei) ||
		errors.Is(err, dedup.ErrSnapshotNotFound) ||
		errors.Is(err, dedup.ErrSnapshotExists)
}
