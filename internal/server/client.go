package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/dedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// DialConfig configures a Client session.
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
	// ChunkWorkers enables multi-stream chunking (gear only), exactly as
	// in the in-process pipeline.
	ChunkWorkers int
	// Workers is the encrypt+fingerprint fan-out (GOMAXPROCS if 0).
	Workers int
	// DialTimeout bounds connect + handshake (30s if zero).
	DialTimeout time.Duration
}

// Client is the network counterpart of the in-process backup client: it
// chunks and convergently encrypts locally, negotiates fingerprints with
// the server, uploads only the misses, and hands the recipe to the server
// to seal — the full Backup/Restore/Snapshots/Delete surface over one
// authenticated TCP session.
//
// A Client is NOT safe for concurrent use: it multiplexes one connection
// and runs one operation at a time (operations serialize internally).
// Run one Client per goroutine for concurrent sessions — that is the
// multi-tenant architecture the server is built for. Only convergent
// encryption (EncConvergent) is spoken on the wire; the server-aided and
// MinHash schemes remain in-process.
//
// After a transport or mid-pipeline failure the session state is
// unrecoverable and the Client marks itself broken: further operations
// fail and the caller re-dials. Clean server-side rejections (name
// exists, not found, auth) leave the session usable.
type Client struct {
	nc     net.Conn
	wc     *wire.Conn
	cfg    DialConfig
	limits wire.HelloOK

	mu     sync.Mutex
	broken bool
	closed bool
}

// Dial connects, authenticates, and negotiates limits with a server.
func Dial(addr string, cfg DialConfig) (*Client, error) {
	if err := validTenant(cfg.Tenant); err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	if cfg.Chunking == (chunker.Params{}) {
		cfg.Chunking = chunker.DefaultParams()
	}
	if err := cfg.Chunking.Validate(); err != nil {
		return nil, err
	}
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = handshakeTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, wc: wire.NewConn(nc), cfg: cfg}
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

// cwindow is one in-flight backup window on the client side.
type cwindow struct {
	refs []trace.ChunkRef
	cts  [][]byte // ciphertexts, freed once the data frame is written
}

// backupShared is the state the Backup sender and receiver goroutines
// share.
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
}

// recvLoop is Backup's receiver: it answers negotiate replies with the
// missed ciphertexts, retires acknowledged windows, and terminates on
// TBackupDone or any error.
func (s *backupShared) recvLoop() {
	defer close(s.recvDone)
	var scratch []byte
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
			if w == nil || len(m) != len(w.refs) {
				fail(fmt.Errorf("server: negotiate reply for unknown window %d", seq))
				return
			}
			scratch = scratch[:0]
			var chunks [][]byte
			for i, missed := range m {
				if missed {
					chunks = append(chunks, w.cts[i])
				}
			}
			scratch = wire.AppendChunkData(scratch, seq, chunks)
			// The ciphertexts are dead after the frame is written: TCP
			// owns delivery, and a lost connection fails the whole backup.
			w.cts = nil
			if err := s.c.wc.Send(wire.TChunkData, scratch); err != nil {
				fail(err)
				return
			}
		case wire.TWindowAck:
			seq, err := wire.ParseSeq(p)
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			_, ok := s.pending[seq]
			delete(s.pending, seq)
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

// Backup chunks and convergently encrypts src locally, negotiates each
// window's fingerprints with the server, uploads only the chunks the
// shared store is missing, and commits the recipe — returning once the
// server acknowledges the snapshot durable. Windows pipeline: up to the
// server-advertised in-flight limit of windows may be unacknowledged at
// once, so encryption, negotiation, and upload overlap.
//
// Cancelling ctx abandons the session (the connection is closed and the
// server aborts: no snapshot appears).
func (c *Client) Backup(ctx context.Context, name string, src io.Reader) (wire.SnapshotInfo, error) {
	if err := c.begin(); err != nil {
		return wire.SnapshotInfo{}, err
	}
	if _, err := wire.AppendName(nil, name); err != nil {
		return wire.SnapshotInfo{}, err
	}
	ctxFired := c.watchCtx(ctx)
	info, broken, err := c.backup(name, src)
	if ctxFired() {
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
func (c *Client) backup(name string, src io.Reader) (info wire.SnapshotInfo, broken bool, err error) {
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

	windowChunks := int(c.limits.WindowChunks)
	if windowChunks > DefaultWindowChunks {
		windowChunks = DefaultWindowChunks
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
	info, err = c.runBackupPipeline(name, src, windowChunks, shared)
	if err != nil {
		// Unblock and collect the receiver before returning: markBroken
		// closes the conn, which ends it.
		c.nc.Close()
		<-shared.recvDone
		return wire.SnapshotInfo{}, true, err
	}
	return info, false, nil
}

// runBackupPipeline is the sender side: chunk, encrypt, negotiate,
// commit.
func (c *Client) runBackupPipeline(name string, src io.Reader, windowChunks int, shared *backupShared) (wire.SnapshotInfo, error) {
	params := c.cfg.Chunking
	params.DeferFingerprint = true
	var (
		cdc chunker.Chunker
		err error
	)
	if c.cfg.ChunkWorkers > 1 && params.Algorithm == chunker.AlgoGear {
		cdc, err = chunker.NewMultiGear(src, params, c.cfg.ChunkWorkers)
	} else {
		cdc, err = chunker.New(src, params)
	}
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	defer func() {
		if mc, ok := cdc.(interface{ Close() error }); ok {
			_ = mc.Close()
		}
	}()

	recvErr := func() error {
		if shared.err != nil {
			return shared.err
		}
		return errors.New("server: connection closed during backup")
	}

	var (
		entries []mle.RecipeEntry
		window  []chunker.Chunk
		seq     uint32
		negPay  []byte
	)
	flush := func() error {
		if len(window) == 0 {
			return nil
		}
		refs, cts, werr := c.encryptWindow(window)
		if werr != nil {
			return werr
		}
		for i, r := range refs {
			entries = append(entries, mle.RecipeEntry{Fingerprint: r.FP, Key: cts.keys[i], Size: r.Size})
		}
		select {
		case shared.slots <- struct{}{}:
		case <-shared.recvDone:
			return recvErr()
		}
		w := &cwindow{refs: refs, cts: cts.data}
		shared.mu.Lock()
		shared.pending[seq] = w
		shared.mu.Unlock()
		negPay = wire.AppendNegotiate(negPay[:0], seq, refs)
		seq++
		if serr := c.wc.Send(wire.TNegotiate, negPay); serr != nil {
			return serr
		}
		for i := range window {
			window[i].Release()
		}
		window = window[:0]
		return nil
	}
	for {
		ch, cerr := cdc.Next()
		if errors.Is(cerr, io.EOF) {
			break
		}
		if cerr != nil {
			for i := range window {
				window[i].Release()
			}
			return wire.SnapshotInfo{}, fmt.Errorf("server: chunking: %w", cerr)
		}
		window = append(window, ch)
		if len(window) == windowChunks {
			if err := flush(); err != nil {
				for i := range window {
					window[i].Release()
				}
				return wire.SnapshotInfo{}, err
			}
		}
	}
	if err := flush(); err != nil {
		for i := range window {
			window[i].Release()
		}
		return wire.SnapshotInfo{}, err
	}

	// Quiesce: once the sender holds every slot, every window is
	// acknowledged and the store holds all our chunks.
	for i := 0; i < cap(shared.slots); i++ {
		select {
		case shared.slots <- struct{}{}:
		case <-shared.recvDone:
			return wire.SnapshotInfo{}, recvErr()
		}
	}
	commit, err := wire.AppendCommit(nil, entries)
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
		return info, nil
	default:
		return wire.SnapshotInfo{}, recvErr()
	}
}

// windowCiphertexts is encryptWindow's result: parallel slices in window
// order.
type windowCiphertexts struct {
	data [][]byte
	keys []mle.Key
}

// encryptWindow convergently encrypts one window with the worker fan-out:
// key from the plaintext, deterministic CTR encryption, ciphertext
// fingerprint — bit-identical to the in-process pipeline's EncConvergent
// path, which is what makes cross-client dedup work.
func (c *Client) encryptWindow(window []chunker.Chunk) ([]trace.ChunkRef, windowCiphertexts, error) {
	refs := make([]trace.ChunkRef, len(window))
	cts := windowCiphertexts{data: make([][]byte, len(window)), keys: make([]mle.Key, len(window))}
	err := parallelFor(c.cfg.Workers, len(window), func(i int) {
		key := mle.ConvergentKey(window[i].Data)
		ct := mle.EncryptDeterministic(key, window[i].Data)
		refs[i] = trace.ChunkRef{FP: fphash.FromBytes(ct), Size: uint32(len(ct))}
		cts.data[i] = ct
		cts.keys[i] = key
	})
	return refs, cts, err
}

// parallelFor runs fn(0..n-1) across workers goroutines (GOMAXPROCS if
// 0), inline when 1.
func parallelFor(workers, n int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return nil
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
