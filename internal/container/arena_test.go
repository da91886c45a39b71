package container

import (
	"bytes"
	"testing"
)

// TestArenaCopiesAndGrowsInBlocks: Append copies a chunk into the open
// container's arena (the caller's buffer is not kept), the arena grows one
// block at a time as chunks arrive, and a chunk larger than a block gets a
// buffer of its own.
func TestArenaCopiesAndGrowsInBlocks(t *testing.T) {
	const capacity = 4 << 20
	b, _ := newFileStore(t, capacity, 1)
	s, err := NewWithBackend(capacity, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := dataEntry(1, 1000)
	want := bytes.Clone(e.Data)
	loc := mustAppend(t, s, e)
	e.Data[0] ^= 0xff // the caller's buffer is the caller's
	if got, err := s.Get(loc); err != nil || !bytes.Equal(got.Data, want) {
		t.Fatalf("Get = %v, want the bytes as appended", err)
	}
	if n := len(s.arena.blocks); n != 1 {
		t.Fatalf("%d arena blocks after one small chunk, want 1", n)
	}
	// Fill the first block exactly, then one byte more opens a second.
	mustAppend(t, s, dataEntry(2, uint32(arenaBlockBytes-1000)))
	if n := len(s.arena.blocks); n != 1 {
		t.Fatalf("%d arena blocks once the first is full, want 1", n)
	}
	mustAppend(t, s, dataEntry(3, 1))
	if n := len(s.arena.blocks); n != 2 {
		t.Fatalf("%d arena blocks after the first overflowed, want 2", n)
	}
	big := dataEntry(4, arenaBlockBytes+1)
	loc = mustAppend(t, s, big)
	if n := len(s.arena.blocks); n != 2 {
		t.Fatalf("%d arena blocks after an oversized chunk, want it outside them", n)
	}
	if got, _ := s.Get(loc); cap(got.Data) != len(big.Data) || !bytes.Equal(got.Data, big.Data) {
		t.Fatal("an oversized chunk did not get a buffer of its own")
	}
}

// TestArenaRecycledOnlyAfterDurableSeal: the arena keeps its blocks while
// the container is open, through a seal that fails, and gives them back
// once a seal succeeds; what was sealed loads byte for byte after the
// blocks back the next container.
func TestArenaRecycledOnlyAfterDurableSeal(t *testing.T) {
	b, _ := newFileStore(t, 1<<20, 1)
	s, err := NewWithBackend(1<<20, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sealed []Entry
	for i := uint64(0); i < 8; i++ {
		e := dataEntry(i, 3000)
		sealed = append(sealed, Entry{FP: e.FP, Size: e.Size, Data: bytes.Clone(e.Data)})
		mustAppend(t, s, e)
	}
	// An entry whose Data does not match its Size fails the seal: the
	// container stays open, its bytes with it.
	mustAppend(t, s, Entry{FP: dataEntry(99, 40).FP, Size: 40})
	if _, err := s.Flush(); err == nil {
		t.Fatal("a seal of a metadata-only entry succeeded")
	}
	if len(s.arena.blocks) == 0 {
		t.Fatal("a failed seal gave the open container's blocks back")
	}
	for i, e := range s.Current().Entries[:len(sealed)] {
		if !bytes.Equal(e.Data, sealed[i].Data) {
			t.Fatalf("entry %d changed after a failed seal", i)
		}
	}
	// Drop the bad entry, as a GC would, and seal for real.
	if _, err := s.Compact(func(e Entry) bool { return e.FP != dataEntry(99, 40).FP }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.arena.blocks); n != 0 {
		t.Fatalf("%d arena blocks held after a durable seal, want 0", n)
	}
	for i := uint64(0); i < 8; i++ {
		mustAppend(t, s, dataEntry(100+i, 3000))
	}
	c, err := b.Load(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range c.Entries {
		if e.FP != sealed[i].FP || !bytes.Equal(e.Data, sealed[i].Data) {
			t.Fatalf("sealed entry %d loads other bytes once the arena backs the next container", i)
		}
	}
}

// TestArenaCompactKeepsOpenSurvivors: a Compact keeps the open
// container's surviving chunks in the arena, byte for byte, and gives the
// blocks back when none survives.
func TestArenaCompactKeepsOpenSurvivors(t *testing.T) {
	b, _ := newFileStore(t, 1<<20, 1)
	s, err := NewWithBackend(1<<20, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s, dataEntry(i, 500))
	}
	odd := func(e Entry) bool { return e.FP.Uint64()%2 == 1 }
	if _, err := s.Compact(odd, nil); err != nil {
		t.Fatal(err)
	}
	cur := s.Current()
	if cur == nil || len(cur.Entries) != 3 || len(s.arena.blocks) == 0 {
		t.Fatalf("open container after compaction: %+v, %d blocks", cur, len(s.arena.blocks))
	}
	for _, e := range cur.Entries {
		if want := dataEntry(e.FP.Uint64(), 500); !bytes.Equal(e.Data, want.Data) {
			t.Fatalf("surviving entry %d changed", e.FP.Uint64())
		}
	}
	if _, err := s.Compact(func(Entry) bool { return false }, nil); err != nil {
		t.Fatal(err)
	}
	if s.Current() != nil || len(s.arena.blocks) != 0 {
		t.Fatalf("nothing survived, yet the arena holds %d blocks", len(s.arena.blocks))
	}
}

// TestMemBackendStoreCopiesWithoutArena: a MemBackend keeps what it seals,
// so its packer gives every chunk a buffer of its own and recycles nothing.
func TestMemBackendStoreCopiesWithoutArena(t *testing.T) {
	s := newStore(t, 100)
	e := dataEntry(1, 60)
	want := bytes.Clone(e.Data)
	mustAppend(t, s, e)
	e.Data[0] ^= 0xff
	mustFlush(t, s)
	mustAppend(t, s, dataEntry(2, 60))
	c, err := s.Container(0)
	if err != nil || !bytes.Equal(c.Entries[0].Data, want) {
		t.Fatalf("sealed container: %v, bytes equal %v", err, err == nil && bytes.Equal(c.Entries[0].Data, want))
	}
	if s.arena.pool != nil || len(s.arena.blocks) != 0 {
		t.Fatal("a MemBackend store packs into an arena")
	}
}
