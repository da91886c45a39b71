package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/chunker"
	"freqdedup/internal/wire"
)

// stallingReader serves one buffer, then parks every further Read until
// released: a source that stalls mid-stream (a dead NFS mount, a wedged
// pipe).
type stallingReader struct {
	first   []byte
	served  bool // touched only by the one reading goroutine
	entered sync.Once
	parked  chan struct{} // closed once the first stalled Read is parked
	release chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	if !r.served {
		r.served = true
		return copy(p, r.first), nil
	}
	r.entered.Do(func() { close(r.parked) })
	<-r.release
	return 0, io.EOF
}

// TestRemoteBackupCancelWhileReaderBlocked: cancelling a remote Backup
// must not wait for a stalled read of the source — the pipeline's
// producer does the reading, so Backup returns context.Canceled at once
// and, once the reader finally returns, every pooled chunk buffer comes
// back.
func TestRemoteBackupCancelWhileReaderBlocked(t *testing.T) {
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend})
	c, err := Dial(addr, DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	baseline := bufpool.Outstanding()
	first := make([]byte, 64<<10)
	for i := range first {
		first[i] = byte(i * 7)
	}
	src := &stallingReader{first: first, parked: make(chan struct{}), release: make(chan struct{})}
	// Release the reader on every exit, so a Backup that ignores the
	// cancellation fails the test instead of wedging it.
	var once sync.Once
	release := func() { once.Do(func() { close(src.release) }) }
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Backup(ctx, "stalled", src)
		errc <- err
	}()
	select {
	case <-src.parked:
	case err := <-errc:
		t.Fatalf("Backup returned %v before the reader stalled", err)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Backup err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		release()
		t.Fatalf("cancelled Backup still blocked on the stalled reader after 2s (then returned %v)", <-errc)
	}
	release() // let the parked producer exit and drain
	waitBufs(t, baseline)
	backend.waitAborts(t, 1)
	if backend.snapCount() != 0 {
		t.Fatal("cancelled backup registered a snapshot")
	}
}

// TestDialRejectsInvalidConfig: Dial validates the pipeline configuration
// exactly as dedup.NewClient does, before it connects — no THello reaches
// the server — while the chunk-size check against the server's advertised
// limit still runs after the handshake.
func TestDialRejectsInvalidConfig(t *testing.T) {
	var hellos atomic.Int32
	_, addr := startServer(t, Config{
		Backend: newFakeBackend(),
		Auth:    func(string, []byte) bool { hellos.Add(1); return true },
	})
	for _, tc := range []struct {
		name string
		cfg  DialConfig
	}{
		{"avg-not-power-of-two", DialConfig{Chunking: chunker.Params{Min: 1024, Avg: 3000, Max: 8192}}},
		{"unknown-algorithm", DialConfig{Chunking: chunker.Params{Min: 1024, Avg: 4096, Max: 8192, Algorithm: 99}}},
		{"negative-workers", DialConfig{Workers: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Tenant = "alice"
			c, err := Dial(addr, tc.cfg)
			if err == nil {
				c.Close()
				t.Fatalf("Dial accepted %+v", tc.cfg)
			}
			if n := hellos.Load(); n != 0 {
				t.Fatalf("Dial sent %d THello before rejecting %+v: %v", n, tc.cfg, err)
			}
		})
	}

	big := chunker.DefaultParams()
	big.Max = 2 * DefaultMaxChunkBytes
	if c, err := Dial(addr, DialConfig{Tenant: "alice", Chunking: big}); err == nil {
		c.Close()
		t.Fatal("Dial accepted a chunking max above the server's chunk limit")
	}
	if n := hellos.Load(); n != 1 {
		t.Fatalf("%d THello frames, want 1 (the limit check needs the handshake)", n)
	}
}

// TestDialRejectsUnusableLimits: a server advertising a zero window or
// in-flight limit would leave the sink unable to send a window; Dial
// refuses it.
func TestDialRejectsUnusableLimits(t *testing.T) {
	for _, limits := range []wire.HelloOK{
		{Version: wire.Version, WindowChunks: 0, MaxInflight: DefaultMaxInflight, MaxChunkBytes: DefaultMaxChunkBytes},
		{Version: wire.Version, WindowChunks: DefaultWindowChunks, MaxInflight: 0, MaxChunkBytes: DefaultMaxChunkBytes},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func(limits wire.HelloOK) {
			defer close(served)
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			wc := wire.NewConn(nc)
			if _, _, err := wc.Recv(); err != nil {
				return
			}
			_ = wc.Send(wire.THelloOK, wire.AppendHelloOK(nil, limits))
			_, _, _ = wc.Recv() // until the client hangs up
		}(limits)
		c, err := Dial(ln.Addr().String(), DialConfig{Tenant: "alice"})
		if err == nil {
			c.Close()
			t.Errorf("Dial accepted limits %+v", limits)
		}
		ln.Close()
		<-served
	}
}

// TestBackupRejectsRepeatedReply: a server that answers one window twice
// gets a protocol error, not a crash of the client on the window it has
// already retired, and every pooled chunk buffer comes back.
func TestBackupRejectsRepeatedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		wc := wire.NewConn(nc)
		if _, _, err := wc.Recv(); err != nil { // THello
			return
		}
		_ = wc.Send(wire.THelloOK, wire.AppendHelloOK(nil, wire.HelloOK{
			Version: wire.Version, WindowChunks: DefaultWindowChunks,
			MaxInflight: DefaultMaxInflight, MaxChunkBytes: DefaultMaxChunkBytes,
		}))
		if _, _, err := wc.Recv(); err != nil { // TBackupBegin
			return
		}
		_ = wc.Send(wire.TBackupReady, nil)
		typ, p, err := wc.Recv()
		if err != nil || typ != wire.TNegotiate {
			return
		}
		seq, refs, err := wire.ParseNegotiate(p, nil)
		if err != nil {
			return
		}
		miss := make([]bool, len(refs))
		for i := range miss {
			miss[i] = true
		}
		reply := wire.AppendNegotiateReply(nil, seq, miss)
		_ = wc.Send(wire.TNegotiateReply, reply)
		_ = wc.Send(wire.TNegotiateReply, reply)
		for { // until the client hangs up
			if _, _, err := wc.Recv(); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String(), DialConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	baseline := bufpool.Outstanding()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := c.Backup(context.Background(), "snap", bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "unknown window") {
		t.Fatalf("Backup err = %v, want a negotiate reply for an unknown window", err)
	}
	waitBufs(t, baseline)
	c.Close()
	<-served
}
