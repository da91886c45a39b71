package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/dedup"
	"freqdedup/internal/trace"
)

// hitChunking makes ~1 KiB chunks, so a 2 MiB generation spans two
// pipeline windows and, at a 64-chunk server window, dozens of
// negotiation windows.
var hitChunking = chunker.Params{Min: 256, Avg: 1024, Max: 4096}

// hitGenerations returns n generations: a random base, then each rewrites
// a few short regions of the previous one, so most chunks repeat.
func hitGenerations(n int) [][]byte {
	rng := rand.New(rand.NewSource(17))
	g := make([]byte, 2<<20)
	rng.Read(g)
	gens := [][]byte{g}
	for len(gens) < n {
		g = append([]byte(nil), g...)
		for r := 0; r < 4; r++ {
			at := rng.Intn(len(g) - 4096)
			rng.Read(g[at : at+1+rng.Intn(4096)])
		}
		gens = append(gens, g)
	}
	return gens
}

// poisonReleases makes every release of a put's buffer overwrite it, and
// every release of a parent-table hit's plaintext call before first and
// count it. A buffer released while the receiver can still read it (a
// hit's plaintext it is yet to encrypt, or a ciphertext it is yet to
// send) then reaches the server as poison, which its fingerprint check
// rejects, or, under -race, is reported as a race between the poisoning
// write and the read.
func poisonReleases(t *testing.T, before func()) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := releaseBuf
	releaseBuf = func(p dedup.PutChunk) {
		if p.Ref {
			before()
			n.Add(1)
		}
		for i := range p.Buf.Data {
			p.Buf.Data[i] = 0xa5
		}
		p.Buf.Release()
	}
	t.Cleanup(func() { releaseBuf = orig })
	return &n
}

// waitBufs waits for the pooled chunk buffers to return to baseline: the
// pipeline's producer drains asynchronously after a failed backup.
func waitBufs(t *testing.T, baseline int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for chunker.BufsOutstanding() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled chunk buffers outstanding, want %d", chunker.BufsOutstanding(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParentHitCancelInFlight holds the wire sink to its ownership of a
// parent-table hit's plaintext. A session backs up g0, the server loses
// every chunk, and g1's hits all come back miss: the receiver encrypts
// them from plaintexts that are poisoned on release, and the backup must
// still succeed and restore byte-identically. Then g2 is cancelled by the
// receiver's first release, which then stalls, so the teardown runs while
// the receiver is still handling a window of hits; the in-flight limit is
// high enough that the sender is not waiting for a slot, so it sees the
// cancellation at once. Backup returns context.Canceled, and every pooled
// buffer comes back exactly once — none leaked by the sink, none released
// twice by the pipeline or by a teardown that did not wait for the
// receiver.
func TestParentHitCancelInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	released := poisonReleases(t, func() {
		if armed.CompareAndSwap(true, false) {
			cancel()
			time.Sleep(20 * time.Millisecond)
		}
	})
	backend := newFakeBackend()
	_, addr := startServer(t, Config{Backend: backend, WindowChunks: 64, MaxInflight: 64})
	c, err := Dial(addr, DialConfig{Tenant: "alice", Chunking: hitChunking})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	baseline := chunker.BufsOutstanding()
	gens := hitGenerations(3)

	if _, err := c.Backup(ctx, "g0", bytes.NewReader(gens[0])); err != nil {
		t.Fatal(err)
	}
	if n := released.Load(); n != 0 {
		t.Fatalf("the first backup released %d hit plaintexts; it has no parent", n)
	}
	backend.forget()
	info, err := c.Backup(ctx, "g1", bytes.NewReader(gens[1]))
	if err != nil {
		t.Fatalf("backup with every hit missed: %v", err)
	}
	if hits := released.Load(); hits < int64(info.Chunks)/2 {
		t.Fatalf("%d of %d chunks were parent-table hits", hits, info.Chunks)
	}
	var out bytes.Buffer
	if err := c.Restore(ctx, "g1", &out); err != nil || !bytes.Equal(out.Bytes(), gens[1]) {
		t.Fatalf("restore of g1: %v, identical %v", err, bytes.Equal(out.Bytes(), gens[1]))
	}
	waitBufs(t, baseline)

	backend.forget()
	before := released.Load()
	armed.Store(true)
	if _, err := c.Backup(ctx, "g2", bytes.NewReader(gens[2])); !errors.Is(err, context.Canceled) {
		t.Fatalf("Backup err = %v, want context.Canceled", err)
	}
	if released.Load() == before {
		t.Fatal("the cancelled backup released no hit plaintext: no hit was in flight")
	}
	waitBufs(t, baseline)
	backend.waitAborts(t, 1)
	if backend.hasSnap("g2") {
		t.Fatal("cancelled backup registered a snapshot")
	}
}

// discardSession is a fakeSession that keeps uploaded chunks' fingerprints
// but not their bytes, and records the largest negotiation window.
type discardSession struct {
	*fakeSession
	maxWindow int
	windows   int
	bytes     int64
}

func (s *discardSession) Negotiate(refs []trace.ChunkRef) ([]bool, error) {
	s.windows++
	s.maxWindow = max(s.maxWindow, len(refs))
	return s.fakeSession.Negotiate(refs)
}

func (s *discardSession) PutChunks(chunks []dedup.PutChunk) error {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	for _, c := range chunks {
		s.b.store[c.FP] = nil
		s.bytes += int64(len(c.Data))
	}
	return nil
}

// discardBackend hands out discardSessions and keeps the last one.
type discardBackend struct {
	*fakeBackend
	last *discardSession
}

func (b *discardBackend) BeginBackup(name string) (BackupSession, error) {
	sess, err := b.fakeBackend.BeginBackup(name)
	if err != nil {
		return nil, err
	}
	b.last = &discardSession{fakeSession: sess.(*fakeSession)}
	return b.last, nil
}

// TestWireSinkCutsWindowsAtFrameLimit: Dial accepts 64–128 KiB chunks, so
// one pipeline window of incompressible data holds more ciphertext than a
// TChunkData frame may carry. The sink must cut a negotiation window
// before the chunk that would push the worst-case frame past
// wire.MaxPayload, so the backup succeeds with every byte uploaded.
func TestWireSinkCutsWindowsAtFrameLimit(t *testing.T) {
	const size = 72 << 20
	backend := &discardBackend{fakeBackend: newFakeBackend()}
	_, addr := startServer(t, Config{Backend: backend})
	c, err := Dial(addr, DialConfig{Tenant: "alice", Chunking: chunker.Params{Min: 64 << 10, Avg: 64 << 10, Max: 128 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Backup(context.Background(), "big", io.LimitReader(rand.New(rand.NewSource(5)), size))
	if err != nil {
		t.Fatal(err)
	}
	sess := backend.last
	if info.LogicalBytes != size || sess.bytes != size {
		t.Fatalf("logical %d bytes, uploaded %d, want %d", info.LogicalBytes, sess.bytes, size)
	}
	if sess.windows < 2 || sess.maxWindow >= int(info.Chunks) {
		t.Fatalf("%d chunks in %d windows of at most %d: the frame limit cut none", info.Chunks, sess.windows, sess.maxWindow)
	}
}
