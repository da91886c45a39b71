package container

import (
	"errors"
	"testing"

	"freqdedup/internal/fphash"
)

// newStore returns a one-shard store of the given capacity on a
// MemBackend.
func newStore(t *testing.T, capacity int) *Store {
	t.Helper()
	s, err := NewWithBackend(capacity, NewMemBackend(1), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAppend(t *testing.T, s *Store, e Entry) Location {
	t.Helper()
	loc, err := s.Append(e)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return loc
}

func mustFlush(t *testing.T, s *Store) *Container {
	t.Helper()
	c, err := s.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return c
}

func TestAppendAndGet(t *testing.T) {
	s := newStore(t, 100)
	loc := mustAppend(t, s, dataEntry(1, 40))
	if loc.Container != 0 || loc.Index != 0 {
		t.Fatalf("first location = %+v", loc)
	}
	got, err := s.Get(loc)
	if err != nil || got.FP != fphash.FromUint64(1) {
		t.Fatalf("Get = %+v, %v", got, err)
	}
}

func TestSealOnCapacity(t *testing.T) {
	s := newStore(t, 100)
	mustAppend(t, s, dataEntry(1, 60))
	loc := mustAppend(t, s, dataEntry(2, 60)) // does not fit: previous sealed
	if loc.Container != 1 {
		t.Fatalf("second chunk in container %d, want 1", loc.Container)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	c, err := s.Container(0)
	if err != nil || len(c.Entries) != 1 {
		t.Fatalf("sealed container wrong: %+v %v", c, err)
	}
}

func TestOversizedEntryGetsOwnContainer(t *testing.T) {
	s := newStore(t, 100)
	loc := mustAppend(t, s, dataEntry(1, 500)) // larger than capacity: stored alone
	if loc.Container != 0 {
		t.Fatalf("oversized chunk location %+v", loc)
	}
	loc2 := mustAppend(t, s, dataEntry(2, 10))
	if loc2.Container != 1 {
		t.Fatalf("chunk after oversized should start container 1, got %d", loc2.Container)
	}
}

func TestFlush(t *testing.T) {
	s := newStore(t, 1000)
	if mustFlush(t, s) != nil {
		t.Fatal("flushing empty store should return nil")
	}
	mustAppend(t, s, dataEntry(1, 10))
	c := mustFlush(t, s)
	if c == nil || c.ID != 0 || len(c.Entries) != 1 {
		t.Fatalf("flushed container = %+v", c)
	}
	if mustFlush(t, s) != nil {
		t.Fatal("double flush should return nil")
	}
	// New appends go into a fresh container.
	loc := mustAppend(t, s, dataEntry(2, 10))
	if loc.Container != 1 {
		t.Fatalf("post-flush container = %d, want 1", loc.Container)
	}
}

func TestLocationsStable(t *testing.T) {
	s := newStore(t, 256)
	locs := make([]Location, 0, 100)
	for i := uint64(0); i < 100; i++ {
		locs = append(locs, mustAppend(t, s, dataEntry(i, 32)))
	}
	for i, loc := range locs {
		got, err := s.Get(loc)
		if err != nil || got.FP != fphash.FromUint64(uint64(i)) {
			t.Fatalf("location %d no longer resolves: %v", i, err)
		}
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t, 100)
	if _, err := s.Get(Location{Container: 5, Index: 0}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of absent container: %v, want ErrNotFound", err)
	}
	mustAppend(t, s, dataEntry(1, 10))
	if _, err := s.Get(Location{Container: 0, Index: 7}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of absent index: %v, want ErrNotFound", err)
	}
	if _, err := s.Get(Location{Container: -1, Index: 0}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of negative container: %v, want ErrNotFound", err)
	}
}

func TestBytes(t *testing.T) {
	s := newStore(t, 100)
	mustAppend(t, s, dataEntry(1, 60))
	mustAppend(t, s, dataEntry(2, 60))
	mustAppend(t, s, dataEntry(3, 10))
	if got := s.Bytes(); got != 130 {
		t.Fatalf("Bytes = %d, want 130", got)
	}
}

func TestNewWithBackendRejectsBadCapacity(t *testing.T) {
	if _, err := NewWithBackend(0, NewMemBackend(1), 0, nil); err == nil {
		t.Fatal("NewWithBackend with capacity 0 succeeded")
	}
}

// dataEntry builds an entry whose data matches its size, as every store
// holds them.
func dataEntry(id uint64, size uint32) Entry {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(id + uint64(i))
	}
	return Entry{FP: fphash.FromUint64(id), Size: size, Data: data}
}

func TestCompactDropsAndRenumbers(t *testing.T) {
	s := newStore(t, 100)
	locs := map[uint64]Location{}
	for i := uint64(0); i < 10; i++ {
		locs[i] = mustAppend(t, s, dataEntry(i, 40))
	}
	// Drop the even entries.
	keep := func(e Entry) bool { return e.FP.Uint64()%2 == 1 }
	moved := map[uint64]Location{}
	st, err := s.Compact(keep, func(e Entry, loc Location) {
		moved[e.FP.Uint64()] = loc
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.EntriesDropped != 5 || st.BytesDropped != 5*40 {
		t.Fatalf("stats = %+v, want 5 entries / 200 bytes dropped", st)
	}
	if len(moved) != 5 {
		t.Fatalf("moved reported %d entries, want 5", len(moved))
	}
	for id, loc := range moved {
		e, err := s.Get(loc)
		if err != nil || e.FP != fphash.FromUint64(id) {
			t.Fatalf("moved location of %d does not resolve: %+v %v", id, e, err)
		}
	}
	if s.Bytes() != 5*40 {
		t.Fatalf("Bytes = %d, want 200", s.Bytes())
	}
	// Survivors are densely packed from container 0 in their old order.
	want := []uint64{1, 3, 5, 7, 9}
	idx := 0
	for id := 0; ; id++ {
		c, err := s.Container(id)
		if errors.Is(err, ErrNotFound) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Entries {
			if e.FP.Uint64() != want[idx] {
				t.Fatalf("entry %d is chunk %d, want %d", idx, e.FP.Uint64(), want[idx])
			}
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("compacted store holds %d entries, want %d", idx, len(want))
	}
}

func TestCompactKeepAllIsLayoutIdentity(t *testing.T) {
	s := newStore(t, 100)
	for i := uint64(0); i < 7; i++ {
		mustAppend(t, s, dataEntry(i, 40))
	}
	before := s.Count()
	st, err := s.Compact(func(Entry) bool { return true }, nil)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.EntriesDropped != 0 || st.ContainersRewritten != 0 {
		t.Fatalf("keep-all compact reported work: %+v", st)
	}
	if s.Count() != before {
		t.Fatalf("Count changed %d -> %d", before, s.Count())
	}
}
