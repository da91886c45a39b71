package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"freqdedup/internal/dedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// fakeBackend is an in-memory Backend: a chunk map shared across
// sessions, snapshots as recipe-entry lists. Restore decrypts with the
// committed keys, so client→server→client round trips are genuine.
type fakeBackend struct {
	mu     sync.Mutex
	store  map[fphash.Fingerprint][]byte
	snaps  map[string][]mle.RecipeEntry
	puts   int // chunks stored across all sessions
	aborts int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		store: make(map[fphash.Fingerprint][]byte),
		snaps: make(map[string][]mle.RecipeEntry),
	}
}

type fakeSession struct {
	b    *fakeBackend
	name string
}

func (b *fakeBackend) BeginBackup(name string) (BackupSession, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.snaps[name]; ok {
		return nil, fmt.Errorf("%w: %q", dedup.ErrSnapshotExists, name)
	}
	return &fakeSession{b: b, name: name}, nil
}

func (s *fakeSession) Negotiate(refs []trace.ChunkRef) ([]bool, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	miss := make([]bool, len(refs))
	for i, r := range refs {
		_, have := s.b.store[r.FP]
		miss[i] = !have
	}
	return miss, nil
}

func (s *fakeSession) PutChunks(chunks []dedup.PutChunk) error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	for _, c := range chunks {
		s.b.store[c.FP] = append([]byte(nil), c.Data...)
		s.b.puts++
	}
	return nil
}

func (s *fakeSession) Commit(entries []mle.RecipeEntry) (wire.SnapshotInfo, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if _, ok := s.b.snaps[s.name]; ok {
		return wire.SnapshotInfo{}, fmt.Errorf("%w: %q", dedup.ErrSnapshotExists, s.name)
	}
	s.b.snaps[s.name] = entries
	var logical uint64
	for _, e := range entries {
		logical += uint64(e.Size)
	}
	return wire.SnapshotInfo{Name: s.name, CreatedUnix: 1, LogicalBytes: logical, Chunks: uint32(len(entries))}, nil
}

func (s *fakeSession) Abort() {
	s.b.mu.Lock()
	s.b.aborts++
	s.b.mu.Unlock()
}

func (b *fakeBackend) Restore(ctx context.Context, name string, w io.Writer) error {
	b.mu.Lock()
	entries, ok := b.snaps[name]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", dedup.ErrSnapshotNotFound, name)
	}
	for _, e := range entries {
		b.mu.Lock()
		ct := b.store[e.Fingerprint]
		b.mu.Unlock()
		if _, err := w.Write(mle.DecryptDeterministic(e.Key, ct)); err != nil {
			return err
		}
	}
	return nil
}

func (b *fakeBackend) Snapshots(prefix string) []wire.SnapshotInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []wire.SnapshotInfo
	for name, entries := range b.snaps {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, wire.SnapshotInfo{Name: name, Chunks: uint32(len(entries))})
		}
	}
	return out
}

func (b *fakeBackend) Delete(ctx context.Context, name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.snaps[name]; !ok {
		return fmt.Errorf("%w: %q", dedup.ErrSnapshotNotFound, name)
	}
	delete(b.snaps, name)
	return nil
}

func (b *fakeBackend) TenantUsage(tenant string) (wire.TenantUsage, error) {
	return wire.TenantUsage{Tenant: tenant, Snapshots: 7}, nil
}

// forget drops every stored chunk, as a GC of unreferenced chunks would
// once every snapshot holding them is gone.
func (b *fakeBackend) forget() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.store)
}

func (b *fakeBackend) putCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.puts
}

func (b *fakeBackend) storeLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.store)
}

func (b *fakeBackend) snapCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.snaps)
}

func (b *fakeBackend) hasSnap(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.snaps[name]
	return ok
}

// waitAborts waits for the server's deferred Abort to land: the TError
// frame reaches the client before the handler aborts the session.
func (b *fakeBackend) waitAborts(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := b.aborts
		b.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aborts = %d, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// startServer serves cfg on a loopback listener, returning the address
// and a cleanup func.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func TestClientServerRoundTrip(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})

	c, err := Dial(addr, DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(7)).Read(data)
	info, err := c.Backup(context.Background(), "first", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "first" || info.LogicalBytes != uint64(len(data)) {
		t.Fatalf("snapshot info = %+v", info)
	}
	firstPuts := backend.putCount()
	if firstPuts == 0 {
		t.Fatal("no chunks reached the backend")
	}

	// The same bytes again: negotiation must dedup every chunk, so zero
	// uploads reach the store.
	if _, err := c.Backup(context.Background(), "second", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if n := backend.putCount(); n != firstPuts {
		t.Fatalf("duplicate backup uploaded %d chunks", n-firstPuts)
	}

	var got bytes.Buffer
	if err := c.Restore(context.Background(), "first", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("restored bytes differ")
	}

	snaps, err := c.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Name != "first" && s.Name != "second" {
			t.Fatalf("unexpected tenant-relative name %q", s.Name)
		}
	}

	u, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if u.Tenant != "alice" || u.Snapshots != 7 {
		t.Fatalf("usage = %+v", u)
	}

	if err := c.Delete("second"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("second"); !errors.Is(err, dedup.ErrSnapshotNotFound) {
		t.Fatalf("second delete: %v", err)
	}

	// Duplicate name rejection is clean: the session survives it.
	if _, err := c.Backup(context.Background(), "first", bytes.NewReader(data)); !errors.Is(err, dedup.ErrSnapshotExists) {
		t.Fatalf("duplicate name: %v", err)
	}
	if _, err := c.Snapshots(); err != nil {
		t.Fatalf("session dead after clean rejection: %v", err)
	}
}

func TestEmptyBackup(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	c, err := Dial(addr, DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Backup(context.Background(), "empty", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if info.LogicalBytes != 0 || info.Chunks != 0 {
		t.Fatalf("empty snapshot info = %+v", info)
	}
	var got bytes.Buffer
	if err := c.Restore(context.Background(), "empty", &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("restored %d bytes from empty snapshot", got.Len())
	}
}

func TestAuthRejected(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{
		Backend: backend,
		Auth:    TokenAuth(map[string]string{"alice": "sesame"}),
	})

	if _, err := Dial(addr, DialConfig{Tenant: "alice", Token: []byte("wrong")}); err == nil {
		t.Fatal("wrong token accepted")
	} else if ei := new(wire.ErrorInfo); !errors.As(err, &ei) || ei.Code != wire.CodeAuth {
		t.Fatalf("wrong token error = %v", err)
	}
	if _, err := Dial(addr, DialConfig{Tenant: "mallory", Token: []byte("sesame")}); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	c, err := Dial(addr, DialConfig{Tenant: "alice", Token: []byte("sesame")})
	if err != nil {
		t.Fatalf("right token rejected: %v", err)
	}
	c.Close()
}

func TestBadTenantNames(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	for _, tenant := range []string{"", "a/b", "has space", string(make([]byte, 65))} {
		if _, err := Dial(addr, DialConfig{Tenant: tenant}); err == nil {
			t.Fatalf("tenant %q accepted", tenant)
		}
	}
}

// rawSession opens a connection and completes the handshake by hand, for
// protocol-violation tests the well-behaved Client cannot express.
func rawSession(t *testing.T, addr, tenant string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(nc)
	hello, err := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.THello, hello); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wc.Recv()
	if err != nil || typ != wire.THelloOK {
		t.Fatalf("handshake: typ %d err %v", typ, err)
	}
	return wc
}

// expectError drains frames until a TError arrives and returns it.
func expectError(t *testing.T, wc *wire.Conn) wire.ErrorInfo {
	t.Helper()
	for {
		typ, p, err := wc.Recv()
		if err != nil {
			t.Fatalf("connection died before TError: %v", err)
		}
		if typ != wire.TError {
			continue
		}
		e, perr := wire.ParseError(p)
		if perr != nil {
			t.Fatal(perr)
		}
		return e
	}
}

func beginBackup(t *testing.T, wc *wire.Conn, name string) {
	t.Helper()
	payload, err := wire.AppendName(nil, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.TBackupBegin, payload); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wc.Recv()
	if err != nil || typ != wire.TBackupReady {
		t.Fatalf("BackupBegin: typ %d err %v", typ, err)
	}
}

func TestInflightLimitEnforced(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend, MaxInflight: 1})
	wc := rawSession(t, addr, "alice")
	beginBackup(t, wc, "b")

	ref := trace.ChunkRef{FP: fphash.FromBytes([]byte("x")), Size: 1}
	for seq := uint32(0); seq < 2; seq++ {
		if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, seq, []trace.ChunkRef{ref})); err != nil {
			t.Fatal(err)
		}
	}
	if e := expectError(t, wc); e.Code != wire.CodeProtocol {
		t.Fatalf("error code = %d, want protocol", e.Code)
	}
	backend.waitAborts(t, 1)
}

func TestForgedChunkRejected(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	wc := rawSession(t, addr, "mallory")
	beginBackup(t, wc, "poison")

	// Negotiate an honest-looking fingerprint, then upload different
	// bytes of the right size under it — the poisoning move against a
	// shared store.
	real := []byte("the chunk mallory claims to have")
	forged := []byte("the bytes mallory actually sends")
	ref := trace.ChunkRef{FP: fphash.FromBytes(real), Size: uint32(len(real))}
	if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, 0, []trace.ChunkRef{ref})); err != nil {
		t.Fatal(err)
	}
	typ, p, err := wc.Recv()
	if err != nil || typ != wire.TNegotiateReply {
		t.Fatalf("negotiate: typ %d err %v", typ, err)
	}
	if _, miss, err := wire.ParseNegotiateReply(p, nil); err != nil || len(miss) != 1 || !miss[0] {
		t.Fatalf("miss = %v err %v", miss, err)
	}
	if err := wc.Send(wire.TChunkData, wire.AppendChunkData(nil, 0, [][]byte{forged})); err != nil {
		t.Fatal(err)
	}
	if e := expectError(t, wc); e.Code != wire.CodeProtocol {
		t.Fatalf("error code = %d, want protocol", e.Code)
	}
	backend.waitAborts(t, 1)
	if backend.storeLen() != 0 {
		t.Fatal("forged chunk reached the shared store")
	}
}

func TestCommitMustMatchNegotiatedStream(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	wc := rawSession(t, addr, "mallory")
	beginBackup(t, wc, "sneak")

	data := []byte("one honest chunk")
	ref := trace.ChunkRef{FP: fphash.FromBytes(data), Size: uint32(len(data))}
	if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, 0, []trace.ChunkRef{ref})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TNegotiateReply {
		t.Fatalf("negotiate: typ %d err %v", typ, err)
	}
	if err := wc.Send(wire.TChunkData, wire.AppendChunkData(nil, 0, [][]byte{data})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TWindowAck {
		t.Fatalf("ack: typ %d err %v", typ, err)
	}
	// Commit references a chunk that was never negotiated: a foreign
	// fingerprint the tenant hopes is already in the shared store.
	foreign := mle.RecipeEntry{Fingerprint: fphash.FromBytes([]byte("foreign")), Size: 7}
	commit, err := wire.AppendCommit(nil, []mle.RecipeEntry{foreign})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.TBackupCommit, commit); err != nil {
		t.Fatal(err)
	}
	if e := expectError(t, wc); e.Code != wire.CodeProtocol {
		t.Fatalf("error code = %d, want protocol", e.Code)
	}
	backend.waitAborts(t, 1)
	if backend.snapCount() != 0 {
		t.Fatal("mismatched commit registered a snapshot")
	}
}

func TestGracefulDrainFinishesBackup(t *testing.T) {
	backend := newFakeBackend()
	srv, addr := startServer(t, Config{Backend: backend})
	wc := rawSession(t, addr, "alice")
	beginBackup(t, wc, "inflight")

	data := []byte("a chunk that outlives the listener")
	ref := trace.ChunkRef{FP: fphash.FromBytes(data), Size: uint32(len(data))}
	if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, 0, []trace.ChunkRef{ref})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TNegotiateReply {
		t.Fatalf("negotiate: typ %d err %v", typ, err)
	}

	// Shutdown with the session mid-flight: the drain must let it finish.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// New connections are refused once the listener is down.
	for i := 0; ; i++ {
		if _, err := net.DialTimeout("tcp", addr, time.Second); err != nil {
			break
		}
		if i > 100 {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := wc.Send(wire.TChunkData, wire.AppendChunkData(nil, 0, [][]byte{data})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TWindowAck {
		t.Fatalf("ack during drain: typ %d err %v", typ, err)
	}
	entry := mle.RecipeEntry{Fingerprint: ref.FP, Size: ref.Size}
	commit, err := wire.AppendCommit(nil, []mle.RecipeEntry{entry})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.TBackupCommit, commit); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TBackupDone {
		t.Fatalf("commit during drain: typ %d err %v", typ, err)
	}
	// The drained connection then refuses new work with CodeShutdown.
	if typ, p, err := wc.Recv(); err == nil {
		if typ != wire.TError {
			t.Fatalf("post-drain frame type %d", typ)
		}
		if e, perr := wire.ParseError(p); perr != nil || e.Code != wire.CodeShutdown {
			t.Fatalf("post-drain error = %+v (%v)", e, perr)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !backend.hasSnap("alice/inflight") {
		t.Fatal("drained backup did not commit")
	}
}

func TestRateLimiterWiredIntoUploads(t *testing.T) {
	// Functional check only: a tiny rate must still complete correctness
	// intact (the shaping math is unit-tested with a fake clock).
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend, RateBytesPerSec: 32 << 20, RateBurst: 64 << 10})
	c, err := Dial(addr, DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := c.Backup(context.Background(), "limited", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := c.Restore(context.Background(), "limited", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("restored bytes differ under rate shaping")
	}
}

func TestBackupCancellation(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	c, err := Dial(addr, DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := make([]byte, 1<<20)
	if _, err := c.Backup(ctx, "cancelled", bytes.NewReader(data)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backup: %v", err)
	}
	// A poisoned session refuses further work instead of hanging.
	if _, err := c.Snapshots(); err == nil {
		t.Fatal("broken session still serving")
	}
}
