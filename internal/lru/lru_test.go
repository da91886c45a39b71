package lru

import (
	"testing"

	"freqdedup/internal/fphash"
)

func fp(v uint64) fphash.Fingerprint { return fphash.FromUint64(v) }

func TestPutGet(t *testing.T) {
	c := New[fphash.Fingerprint, string](0, nil)
	c.Put(fp(1), "one", 8)
	got, ok := c.Get(fp(1))
	if !ok || got != "one" {
		t.Fatalf("Get = %q,%v, want one,true", got, ok)
	}
	if _, ok := c.Get(fp(2)); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestEvictionOrder(t *testing.T) {
	var evicted []uint64
	c := New[fphash.Fingerprint, int](3*8, func(k fphash.Fingerprint, _ int) {
		evicted = append(evicted, k.Uint64())
	})
	c.Put(fp(1), 1, 8)
	c.Put(fp(2), 2, 8)
	c.Put(fp(3), 3, 8)
	// Touch 1 so 2 becomes LRU.
	c.Get(fp(1))
	c.Put(fp(4), 4, 8)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", evicted)
	}
	if !c.Contains(fp(1)) || !c.Contains(fp(3)) || !c.Contains(fp(4)) {
		t.Fatal("wrong entries survived eviction")
	}
}

func TestByteBoundedEviction(t *testing.T) {
	c := New[fphash.Fingerprint, int](100, nil)
	c.Put(fp(1), 1, 60)
	c.Put(fp(2), 2, 60) // exceeds 100 -> evict 1
	if c.Contains(fp(1)) {
		t.Fatal("entry 1 should have been evicted by byte bound")
	}
	if c.Used() != 60 {
		t.Fatalf("Used = %d, want 60", c.Used())
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New[fphash.Fingerprint, int](50, nil)
	c.Put(fp(1), 1, 100)
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("oversized entry was admitted: len=%d used=%d", c.Len(), c.Used())
	}
}

func TestUpdateExistingAdjustsCost(t *testing.T) {
	c := New[fphash.Fingerprint, int](100, nil)
	c.Put(fp(1), 1, 10)
	c.Put(fp(1), 2, 30)
	if c.Used() != 30 {
		t.Fatalf("Used = %d, want 30 after cost update", c.Used())
	}
	if v, _ := c.Get(fp(1)); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestUpdateMovesToFront(t *testing.T) {
	c := New[fphash.Fingerprint, int](2*8, nil)
	c.Put(fp(1), 1, 8)
	c.Put(fp(2), 2, 8)
	c.Put(fp(1), 10, 8) // refresh 1; 2 becomes LRU
	c.Put(fp(3), 3, 8)
	if c.Contains(fp(2)) {
		t.Fatal("entry 2 should be evicted (LRU after update of 1)")
	}
	if !c.Contains(fp(1)) {
		t.Fatal("updated entry 1 should survive")
	}
}

func TestRemove(t *testing.T) {
	c := New[fphash.Fingerprint, int](0, nil)
	c.Put(fp(1), 1, 8)
	if !c.Remove(fp(1)) {
		t.Fatal("Remove returned false for present key")
	}
	if c.Remove(fp(1)) {
		t.Fatal("Remove returned true for absent key")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Remove did not release resources")
	}
}

func TestStats(t *testing.T) {
	c := New[fphash.Fingerprint, int](0, nil)
	c.Put(fp(1), 1, 8)
	c.Get(fp(1))
	c.Get(fp(2))
	h, m, _ := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1/1", h, m)
	}
}

func TestContainsDoesNotAffectRecency(t *testing.T) {
	c := New[fphash.Fingerprint, int](2*8, nil)
	c.Put(fp(1), 1, 8)
	c.Put(fp(2), 2, 8)
	c.Contains(fp(1)) // must NOT refresh 1
	c.Put(fp(3), 3, 8)
	if c.Contains(fp(1)) {
		t.Fatal("Contains refreshed recency; entry 1 should have been evicted")
	}
}

func TestClear(t *testing.T) {
	evictions := 0
	c := New[fphash.Fingerprint, int](0, func(fphash.Fingerprint, int) { evictions++ })
	c.Put(fp(1), 1, 8)
	c.Put(fp(2), 2, 8)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Clear left entries behind")
	}
	if evictions != 0 {
		t.Fatal("Clear must not fire eviction callbacks")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[fphash.Fingerprint, int](0, nil)
	for i := uint64(0); i < 10000; i++ {
		c.Put(fp(i), int(i), 1<<20)
	}
	if c.Len() != 10000 {
		t.Fatalf("unbounded cache evicted entries: len=%d", c.Len())
	}
	_, _, ev := c.Stats()
	if ev != 0 {
		t.Fatalf("unbounded cache reported %d evictions", ev)
	}
}

// TestNonFingerprintKey exercises the generic key parameter with a
// composite key — a (shard, container) pair — and unit costs, bounding the
// cache by entry count.
func TestNonFingerprintKey(t *testing.T) {
	type containerKey struct{ shard, id int }
	c := New[containerKey, []byte](2, nil)
	c.Put(containerKey{0, 1}, []byte("a"), 1)
	c.Put(containerKey{1, 1}, []byte("b"), 1)
	c.Put(containerKey{0, 2}, []byte("c"), 1) // evicts {0,1}
	if c.Contains(containerKey{0, 1}) {
		t.Fatal("LRU entry survived a unit-cost eviction")
	}
	if v, ok := c.Get(containerKey{1, 1}); !ok || string(v) != "b" {
		t.Fatalf("Get({1,1}) = %q,%v, want b,true", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func BenchmarkPutGet(b *testing.B) {
	c := New[fphash.Fingerprint, int](1<<20, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := fp(uint64(i % 100000))
		c.Put(k, i, 32)
		c.Get(k)
	}
}
