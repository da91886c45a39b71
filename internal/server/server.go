// Package server is the multi-tenant backup service: it exposes one
// shared deduplicating repository to many concurrent TCP clients through
// the wire protocol (see internal/wire's doc.go), with per-tenant bearer
// tokens, tenant-prefixed snapshot namespacing, the chunk-negotiation
// round that makes cross-tenant dedup work over a network ("have you seen
// these fingerprints?" → the client uploads only the misses), bounded
// in-flight windows for backpressure, per-connection byte-rate shaping,
// and graceful drain on shutdown.
//
// The package is deliberately storage-agnostic: it speaks to a Backend,
// and the root freqdedup package adapts *freqdedup.Repository to it (and
// records the negotiation transcripts the adversary model cares about).
// This keeps the dependency arrow pointing inward — the facade re-exports
// the server without an import cycle.
package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"freqdedup/internal/dedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// Defaults for Config's zero values.
const (
	// DefaultWindowChunks matches the in-process pipeline's upload window.
	DefaultWindowChunks = 1024
	// DefaultMaxInflight bounds unacknowledged windows per session: enough
	// pipelining to hide a round trip, small enough that per-session
	// ciphertext in flight stays bounded.
	DefaultMaxInflight = 4
	// DefaultMaxChunkBytes caps one ciphertext chunk, far above any sane
	// chunker Max but far below the frame limit.
	DefaultMaxChunkBytes = 4 << 20

	// handshakeTimeout bounds how long an accepted connection may dawdle
	// before completing the Hello exchange.
	handshakeTimeout = 30 * time.Second

	// restoreFrameBytes sizes TRestoreData frames.
	restoreFrameBytes = 256 << 10
)

// Backend is the storage surface the server drives. Snapshot names
// arriving here are fully qualified ("tenant/name"); prefixes follow the
// same convention. The root freqdedup package implements it over
// *Repository. All methods must be safe for concurrent use.
type Backend interface {
	// BeginBackup starts a backup session for a (new) qualified snapshot
	// name. It fails fast with dedup.ErrSnapshotExists for a taken name;
	// the authoritative check remains at Commit.
	BeginBackup(name string) (BackupSession, error)
	// Restore streams the qualified snapshot's plaintext to w.
	Restore(ctx context.Context, name string, w io.Writer) error
	// Snapshots lists snapshots whose qualified name starts with prefix.
	Snapshots(prefix string) []wire.SnapshotInfo
	// Delete removes the qualified snapshot durably.
	Delete(ctx context.Context, name string) error
	// TenantUsage reports one tenant's accounting.
	TenantUsage(tenant string) (wire.TenantUsage, error)
}

// BackupSession is one client's in-flight backup. Exactly one of Commit
// or Abort must be called; either finishes the session (a failed Commit
// included — do not Abort after it). A session is used by a single
// connection handler; implementations need not be safe for concurrent
// use, but different sessions run concurrently.
type BackupSession interface {
	// Negotiate records one window of the client's fingerprint queries in
	// the negotiation transcript and reports, per ref, whether the store
	// is missing the chunk (true = client must upload it). refs is only
	// borrowed for the call.
	Negotiate(refs []trace.ChunkRef) ([]bool, error)
	// PutChunks stores one window's uploaded ciphertexts. The chunk data
	// is only borrowed for the call; implementations copy what they keep.
	PutChunks(chunks []dedup.PutChunk) error
	// Commit seals and registers the snapshot from the client's recipe
	// entries (already validated against the negotiated stream) and makes
	// it durable before returning.
	Commit(entries []mle.RecipeEntry) (wire.SnapshotInfo, error)
	// Abort discards the session; uploaded chunks fall to the next GC.
	Abort()
}

// Config configures a Server.
type Config struct {
	// Backend is the storage adapter. Required.
	Backend Backend
	// Auth authenticates a session: tenant names a namespace, token is
	// the client's bearer token. Nil accepts every tenant (open server —
	// for benchmarks and tests; see TokenAuth for the production shape).
	Auth func(tenant string, token []byte) bool
	// WindowChunks is the advertised per-window ref limit
	// (DefaultWindowChunks if zero).
	WindowChunks int
	// MaxInflight is the advertised unacknowledged-window limit per
	// session (DefaultMaxInflight if zero).
	MaxInflight int
	// MaxChunkBytes is the advertised per-chunk ciphertext limit
	// (DefaultMaxChunkBytes if zero).
	MaxChunkBytes int
	// RateBytesPerSec shapes each connection's data plane (chunk uploads
	// and restore streams) to this many bytes per second; 0 is unlimited.
	RateBytesPerSec float64
	// RateBurst is the shaping bucket's capacity in bytes (a rate-derived
	// default if zero).
	RateBurst int
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// TokenAuth returns an Auth func over a static tenant→token table using
// constant-time comparison, so a token probe learns nothing from timing.
func TokenAuth(tokens map[string]string) func(tenant string, token []byte) bool {
	return func(tenant string, token []byte) bool {
		want, ok := tokens[tenant]
		if !ok {
			// Burn the comparison anyway: an unknown tenant should cost
			// the same as a wrong token.
			subtle.ConstantTimeCompare(token, []byte("freqdedup-no-such-tenant"))
			return false
		}
		return subtle.ConstantTimeCompare(token, []byte(want)) == 1
	}
}

// Server serves the wire protocol over a listener. Create with New,
// run with Serve, stop with Shutdown (graceful drain) or Close (abrupt).
type Server struct {
	cfg Config

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// New validates cfg, applies defaults, and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: nil backend")
	}
	if cfg.WindowChunks == 0 {
		cfg.WindowChunks = DefaultWindowChunks
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxChunkBytes == 0 {
		cfg.MaxChunkBytes = DefaultMaxChunkBytes
	}
	if cfg.WindowChunks < 1 || cfg.MaxInflight < 1 || cfg.MaxChunkBytes < 1 {
		return nil, fmt.Errorf("server: non-positive limits (window %d, inflight %d, chunk bytes %d)",
			cfg.WindowChunks, cfg.MaxInflight, cfg.MaxChunkBytes)
	}
	if cfg.MaxChunkBytes > wire.MaxPayload/2 {
		return nil, fmt.Errorf("server: MaxChunkBytes %d exceeds the frame budget %d", cfg.MaxChunkBytes, wire.MaxPayload/2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[*serverConn]struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the server shuts down. It returns
// nil after Shutdown/Close, or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		c := &serverConn{
			srv:     s,
			nc:      nc,
			wc:      wire.NewConn(nc),
			limiter: newByteLimiter(s.cfg.RateBytesPerSec, s.cfg.RateBurst),
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
			c.serve()
		}()
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the serving listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Shutdown drains the server gracefully: the listener closes, idle
// connections are closed immediately, and connections with a backup
// session or streaming request in flight are allowed to finish it (new
// work on them is refused with CodeShutdown). When ctx expires first,
// the remaining connections are closed abruptly and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.closeIfIdle()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeAllConns()
		s.cancel()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	return err
}

// Close shuts the server down abruptly: listener and every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.cancel()
	s.closeAllConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeAllConns() {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
}

// serverConn is one client connection's handler state.
type serverConn struct {
	srv     *Server
	nc      net.Conn
	wc      *wire.Conn
	limiter *byteLimiter
	tenant  string

	// busy (under mu) marks an operation in flight — a backup session or
	// a frame being handled — so Shutdown knows which connections it may
	// close immediately.
	mu   sync.Mutex
	busy bool

	// Reused per-connection scratch buffers.
	out    []byte
	refs   []trace.ChunkRef
	chunks [][]byte
	batch  []dedup.PutChunk
}

func (c *serverConn) setBusy(b bool) {
	c.mu.Lock()
	c.busy = b
	c.mu.Unlock()
}

// closeIfIdle closes the connection unless an operation is in flight; a
// busy connection is left to the drain check in the serve loop.
func (c *serverConn) closeIfIdle() {
	c.mu.Lock()
	idle := !c.busy
	c.mu.Unlock()
	if idle {
		c.nc.Close()
	}
}

// sendErr best-effort sends a TError frame.
func (c *serverConn) sendErr(code uint32, msg string) {
	_ = c.wc.Send(wire.TError, wire.AppendError(c.out[:0], code, msg))
}

// backupState is one in-flight backup session's protocol state.
type backupState struct {
	sess BackupSession
	name string
	// nextSeq is the next window sequence number the client must use.
	nextSeq uint32
	// pending maps an unacknowledged window's seq to the refs whose
	// chunks the client owes (negotiated misses, in bitmap order).
	pending map[uint32][]trace.ChunkRef
	// negotiated is the full negotiated ref stream in order; Commit's
	// recipe entries are validated against it so a client cannot register
	// references to chunks it never negotiated.
	negotiated []trace.ChunkRef
}

// serve runs the connection: handshake, then the frame dispatch loop.
func (c *serverConn) serve() {
	defer c.nc.Close()
	if err := c.handshake(); err != nil {
		c.srv.logf("server: %s: handshake: %v", c.nc.RemoteAddr(), err)
		return
	}

	var bs *backupState
	// A connection that dies mid-session aborts it: the unacknowledged
	// snapshot vanishes (its chunks fall to GC), exactly the acked ⇒
	// durable contract.
	defer func() {
		if bs != nil {
			bs.sess.Abort()
		}
	}()
	for {
		typ, p, err := c.wc.Recv()
		if err != nil {
			return
		}
		c.setBusy(true)
		var fatal bool
		bs, fatal = c.dispatch(bs, typ, p)
		c.setBusy(bs != nil)
		if fatal {
			return
		}
		// Graceful drain: once no session is in flight on this
		// connection, refuse further work.
		if bs == nil && c.srv.isDraining() {
			c.sendErr(wire.CodeShutdown, "server is shutting down")
			return
		}
	}
}

// handshake runs the Hello exchange under a deadline.
func (c *serverConn) handshake() error {
	if err := c.nc.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	typ, p, err := c.wc.Recv()
	if err != nil {
		return err
	}
	if typ != wire.THello {
		c.sendErr(wire.CodeProtocol, "expected Hello")
		return fmt.Errorf("first frame type %d", typ)
	}
	hello, err := wire.ParseHello(p)
	if err != nil {
		c.sendErr(wire.CodeProtocol, "malformed Hello")
		return err
	}
	if hello.Version != wire.Version {
		c.sendErr(wire.CodeProtocol, fmt.Sprintf("unsupported protocol version %d", hello.Version))
		return fmt.Errorf("protocol version %d", hello.Version)
	}
	if err := validTenant(hello.Tenant); err != nil {
		c.sendErr(wire.CodeProtocol, err.Error())
		return err
	}
	if c.srv.cfg.Auth != nil && !c.srv.cfg.Auth(hello.Tenant, hello.Token) {
		c.sendErr(wire.CodeAuth, "authentication failed")
		return fmt.Errorf("tenant %q: authentication failed", hello.Tenant)
	}
	c.tenant = hello.Tenant
	ok := wire.AppendHelloOK(c.out[:0], wire.HelloOK{
		Version:       wire.Version,
		WindowChunks:  uint32(c.srv.cfg.WindowChunks),
		MaxInflight:   uint32(c.srv.cfg.MaxInflight),
		MaxChunkBytes: uint32(c.srv.cfg.MaxChunkBytes),
	})
	c.out = ok[:0]
	if err := c.wc.Send(wire.THelloOK, ok); err != nil {
		return err
	}
	return c.nc.SetDeadline(time.Time{})
}

// validTenant enforces the namespace shape: the tenant is a single path
// segment, so "tenant/name" parses back unambiguously.
func validTenant(t string) error {
	if t == "" || len(t) > 64 {
		return fmt.Errorf("tenant name length %d out of range [1, 64]", len(t))
	}
	for _, r := range t {
		if r == '/' || r < 0x21 || r == 0x7f {
			return errors.New("tenant name contains a separator or control character")
		}
	}
	return nil
}

// dispatch handles one frame, returning the (possibly changed) backup
// state and whether the connection must close. Protocol violations are
// fatal; operational failures (snapshot exists, not found, storage
// errors) are reported and the connection lives on.
func (c *serverConn) dispatch(bs *backupState, typ uint32, p []byte) (*backupState, bool) {
	fail := func(msg string) (*backupState, bool) {
		c.sendErr(wire.CodeProtocol, msg)
		if bs != nil {
			bs.sess.Abort()
		}
		return nil, true
	}

	switch typ {
	case wire.TBackupBegin:
		if bs != nil {
			return fail("backup already in progress on this connection")
		}
		name, err := wire.ParseName(p)
		if err != nil {
			return fail("malformed BackupBegin")
		}
		if c.srv.isDraining() {
			c.sendErr(wire.CodeShutdown, "server is shutting down")
			return nil, true
		}
		sess, err := c.srv.cfg.Backend.BeginBackup(c.qualified(name))
		if err != nil {
			c.sendBackendErr(err)
			return nil, false
		}
		if err := c.wc.Send(wire.TBackupReady, nil); err != nil {
			sess.Abort()
			return nil, true
		}
		return &backupState{
			sess:    sess,
			name:    name,
			pending: make(map[uint32][]trace.ChunkRef),
		}, false

	case wire.TNegotiate:
		if bs == nil {
			return fail("Negotiate outside a backup session")
		}
		seq, refs, err := wire.ParseNegotiate(p, c.refs)
		c.refs = refs[:0]
		if err != nil {
			return fail("malformed Negotiate")
		}
		if seq != bs.nextSeq {
			return fail(fmt.Sprintf("window seq %d, expected %d", seq, bs.nextSeq))
		}
		if len(refs) == 0 || len(refs) > c.srv.cfg.WindowChunks {
			return fail(fmt.Sprintf("window of %d refs exceeds limit %d", len(refs), c.srv.cfg.WindowChunks))
		}
		if len(bs.pending) >= c.srv.cfg.MaxInflight {
			return fail(fmt.Sprintf("more than %d windows in flight", c.srv.cfg.MaxInflight))
		}
		for _, r := range refs {
			if r.Size == 0 || int(r.Size) > c.srv.cfg.MaxChunkBytes {
				return fail(fmt.Sprintf("chunk size %d out of range [1, %d]", r.Size, c.srv.cfg.MaxChunkBytes))
			}
		}
		bs.nextSeq++
		miss, err := bs.sess.Negotiate(refs)
		if err != nil {
			c.sendErr(wire.CodeInternal, err.Error())
			bs.sess.Abort()
			return nil, true
		}
		bs.negotiated = append(bs.negotiated, refs...)
		var owed []trace.ChunkRef
		for i, m := range miss {
			if m {
				owed = append(owed, refs[i])
			}
		}
		bs.pending[seq] = owed
		if err := c.wc.Send(wire.TNegotiateReply, wire.AppendNegotiateReply(c.out[:0], seq, miss)); err != nil {
			bs.sess.Abort()
			return nil, true
		}
		return bs, false

	case wire.TChunkData:
		if bs == nil {
			return fail("ChunkData outside a backup session")
		}
		seq, chunks, err := wire.ParseChunkData(p, c.chunks)
		c.chunks = chunks[:0]
		if err != nil {
			return fail("malformed ChunkData")
		}
		owed, ok := bs.pending[seq]
		if !ok {
			return fail(fmt.Sprintf("ChunkData for unknown window %d", seq))
		}
		if len(chunks) != len(owed) {
			return fail(fmt.Sprintf("window %d: %d chunks, owed %d", seq, len(chunks), len(owed)))
		}
		// Shape ingest before the expensive work; the bucket sleeps, so a
		// limited client simply streams slower.
		c.limiter.waitN(len(p))
		// Verify every uploaded ciphertext against its negotiated
		// fingerprint before it may enter the SHARED store: without this a
		// tenant could register garbage under a fingerprint and poison
		// every other tenant's future dedup hits against it.
		batch := c.batch[:0]
		for i, data := range chunks {
			if uint32(len(data)) != owed[i].Size {
				return fail(fmt.Sprintf("window %d chunk %d: size %d, negotiated %d", seq, i, len(data), owed[i].Size))
			}
			if fphash.FromBytes(data) != owed[i].FP {
				return fail(fmt.Sprintf("window %d chunk %d: content does not match negotiated fingerprint", seq, i))
			}
			batch = append(batch, dedup.PutChunk{FP: owed[i].FP, Data: data})
		}
		c.batch = batch[:0]
		if err := bs.sess.PutChunks(batch); err != nil {
			c.sendErr(wire.CodeInternal, err.Error())
			bs.sess.Abort()
			return nil, true
		}
		delete(bs.pending, seq)
		if err := c.wc.Send(wire.TWindowAck, wire.AppendSeq(c.out[:0], seq)); err != nil {
			bs.sess.Abort()
			return nil, true
		}
		return bs, false

	case wire.TBackupCommit:
		if bs == nil {
			return fail("Commit outside a backup session")
		}
		if len(bs.pending) != 0 {
			return fail(fmt.Sprintf("Commit with %d unacknowledged windows", len(bs.pending)))
		}
		entries, err := wire.ParseCommit(p)
		if err != nil {
			return fail("malformed Commit")
		}
		// The recipe must be exactly the negotiated stream: a commit
		// referencing chunks that were never negotiated (and so never
		// verified or uploaded) would register dangling or foreign
		// references in the shared refcounts.
		if len(entries) != len(bs.negotiated) {
			return fail(fmt.Sprintf("recipe has %d entries, negotiated %d", len(entries), len(bs.negotiated)))
		}
		for i, e := range entries {
			if e.Fingerprint != bs.negotiated[i].FP || e.Size != bs.negotiated[i].Size {
				return fail(fmt.Sprintf("recipe entry %d does not match the negotiated stream", i))
			}
		}
		info, err := bs.sess.Commit(entries)
		if err != nil {
			c.sendBackendErr(err)
			return nil, false
		}
		info.Name = bs.name
		if err := c.wc.Send(wire.TBackupDone, wire.AppendSnapshotInfo(c.out[:0], info)); err != nil {
			return nil, true
		}
		return nil, false

	case wire.TRestoreReq:
		if bs != nil {
			return fail("Restore during a backup session")
		}
		name, err := wire.ParseName(p)
		if err != nil {
			return fail("malformed RestoreReq")
		}
		w := &restoreWriter{sendFrame: func(p []byte) error {
			c.limiter.waitN(len(p))
			return c.wc.Send(wire.TRestoreData, p)
		}}
		if err := c.srv.cfg.Backend.Restore(c.srv.baseCtx, c.qualified(name), w); err != nil {
			// The client sees data frames followed by TError and discards
			// the partial restore.
			c.sendBackendErr(err)
			return nil, w.failed
		}
		if err := w.flush(); err != nil {
			return nil, true
		}
		if err := c.wc.Send(wire.TRestoreEnd, wire.AppendU64(c.out[:0], w.total)); err != nil {
			return nil, true
		}
		return nil, false

	case wire.TSnapshotsReq:
		if len(p) != 0 {
			return fail("malformed SnapshotsReq")
		}
		prefix := c.tenant + "/"
		list := c.srv.cfg.Backend.Snapshots(prefix)
		out := make([]wire.SnapshotInfo, 0, len(list))
		for _, s := range list {
			s.Name = strings.TrimPrefix(s.Name, prefix)
			out = append(out, s)
		}
		if err := c.wc.Send(wire.TSnapshotsReply, wire.AppendSnapshotList(c.out[:0], out)); err != nil {
			return nil, true
		}
		return nil, false

	case wire.TDeleteReq:
		if bs != nil {
			return fail("Delete during a backup session")
		}
		name, err := wire.ParseName(p)
		if err != nil {
			return fail("malformed DeleteReq")
		}
		if err := c.srv.cfg.Backend.Delete(c.srv.baseCtx, c.qualified(name)); err != nil {
			c.sendBackendErr(err)
			return nil, false
		}
		if err := c.wc.Send(wire.TDeleteOK, nil); err != nil {
			return nil, true
		}
		return nil, false

	case wire.TStatsReq:
		if len(p) != 0 {
			return fail("malformed StatsReq")
		}
		u, err := c.srv.cfg.Backend.TenantUsage(c.tenant)
		if err != nil {
			c.sendBackendErr(err)
			return nil, false
		}
		if err := c.wc.Send(wire.TStatsReply, wire.AppendTenantUsage(c.out[:0], u)); err != nil {
			return nil, true
		}
		return nil, false

	default:
		return fail(fmt.Sprintf("unexpected frame type %d", typ))
	}
}

// qualified prefixes a tenant-relative snapshot name.
func (c *serverConn) qualified(name string) string { return c.tenant + "/" + name }

// sendBackendErr maps a backend error to a wire error code.
func (c *serverConn) sendBackendErr(err error) {
	switch {
	case errors.Is(err, dedup.ErrSnapshotExists):
		c.sendErr(wire.CodeExists, err.Error())
	case errors.Is(err, dedup.ErrSnapshotNotFound):
		c.sendErr(wire.CodeNotFound, err.Error())
	default:
		c.sendErr(wire.CodeInternal, err.Error())
	}
}

// restoreWriter frames Backend.Restore's output into TRestoreData frames
// of at most restoreFrameBytes, rate-shaped like uploads. Restore writes
// MiB-scale slabs: whole frames are sent straight from the caller's slice
// and only a sub-frame tail is copied, to lead the next Write's first
// frame.
type restoreWriter struct {
	sendFrame func(p []byte) error // rate-shapes and sends one frame
	buf       []byte               // the tail, shorter than a frame
	total     uint64
	failed    bool // a frame send failed; the connection is done
}

func (w *restoreWriter) Write(p []byte) (int, error) {
	w.total += uint64(len(p))
	rest := p
	if len(w.buf) > 0 {
		n := min(restoreFrameBytes-len(w.buf), len(rest))
		w.buf = append(w.buf, rest[:n]...)
		rest = rest[n:]
		if len(w.buf) < restoreFrameBytes {
			return len(p), nil
		}
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	for len(rest) >= restoreFrameBytes {
		if err := w.send(rest[:restoreFrameBytes]); err != nil {
			return 0, err
		}
		rest = rest[restoreFrameBytes:]
	}
	w.buf = append(w.buf, rest...)
	return len(p), nil
}

func (w *restoreWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.send(w.buf)
	w.buf = w.buf[:0]
	return err
}

func (w *restoreWriter) send(p []byte) error {
	if err := w.sendFrame(p); err != nil {
		w.failed = true
		return err
	}
	return nil
}
