package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"

	"freqdedup"
)

// TestParentHitMissedAfterGC is the miss path of a session's parent
// table, over a real repository: one session backs up g0, the snapshot is
// deleted and collected, and the same session backs up g1, whose table —
// g0's recipe — now names only chunks the server lacks. The server must
// answer every chunk miss, the sink must encrypt the hits then, and the
// backup must restore byte-identically and leave Verify clean.
func TestParentHitMissedAfterGC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g0 := make([]byte, 2<<20)
	rng.Read(g0)
	g1 := append([]byte(nil), g0...)
	rng.Read(g1[len(g1)/2 : len(g1)/2+32<<10])

	repo, err := freqdedup.CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	rs, err := freqdedup.NewRepositoryServer(repo, freqdedup.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rs.Serve(ln) }()
	defer func() {
		rs.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	ctx := context.Background()
	c, err := freqdedup.DialServer(ln.Addr().String(), freqdedup.RemoteClientConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Backup(ctx, "g0", bytes.NewReader(g0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("g0"); err != nil {
		t.Fatal(err)
	}
	gc, err := repo.GC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksReclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	info, err := c.Backup(ctx, "g1", bytes.NewReader(g1))
	if err != nil {
		t.Fatalf("backup after the parent's chunks were collected: %v", err)
	}
	var out bytes.Buffer
	if err := c.Restore(ctx, "g1", &out); err != nil || !bytes.Equal(out.Bytes(), g1) {
		t.Fatalf("restore of g1: %v, identical %v", err, bytes.Equal(out.Bytes(), g1))
	}
	if err := repo.Verify(ctx); err != nil {
		t.Fatal(err)
	}

	// The negotiation log's miss stream shows the server answered miss
	// for every chunk of g1, table hits included.
	var queried, missed int
	for _, b := range rs.NegotiationLog().Backups() {
		m, err := b.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		switch b.Label {
		case "alice/g1":
			queried = len(m.Chunks)
		case "alice/g1" + freqdedup.NegotiationMissSuffix:
			missed = len(m.Chunks)
		}
	}
	if queried != int(info.Chunks) || missed != queried {
		t.Fatalf("g1: %d chunks, %d negotiated, %d missed; want every chunk missed", info.Chunks, queried, missed)
	}
}
