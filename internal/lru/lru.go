// Package lru provides a least-recently-used cache with a generic
// comparable key. It serves two roles in the reproduction: keyed by chunk
// fingerprints it is the in-memory fingerprint cache of the DDFS-like
// prototype (Section 7.4, steps S1 and S4), and keyed by run block it is
// the persistent fingerprint index's hot-block cache — both evict the
// least-recently-used entries when full.
//
// The cache tracks an abstract cost per entry so it can be bounded by
// total metadata bytes (the paper bounds the fingerprint cache at 512 MB or
// 4 GB of 32-byte metadata entries) or, with unit costs, by entry count.
package lru

import (
	"container/list"
)

// Cache is a cost-bounded LRU cache. The zero value is not usable;
// construct with New. A Cache is not safe for concurrent use; callers
// that share one across goroutines own its locking.
type Cache[K comparable, V any] struct {
	capacity  uint64 // max total cost; 0 means unbounded
	used      uint64
	ll        *list.List
	items     map[K]*list.Element
	onEvict   func(K, V)
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost uint64
}

// New creates a cache bounded at capacity total cost. capacity == 0 means
// unbounded. onEvict, if non-nil, is called for each evicted entry.
func New[K comparable, V any](capacity uint64, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
		onEvict:  onEvict,
	}
}

// Get looks up a key, marking it most recently used on a hit.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Contains reports whether the key is cached without updating recency or
// hit statistics.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates an entry with the given cost and evicts
// least-recently-used entries until the cache fits its capacity. A single
// entry larger than the whole capacity is not admitted.
func (c *Cache[K, V]) Put(key K, val V, cost uint64) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.used -= e.cost
		e.val, e.cost = val, cost
		c.used += cost
		c.ll.MoveToFront(el)
		c.evict()
		return
	}
	if c.capacity != 0 && cost > c.capacity {
		return
	}
	el := c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.items[key] = el
	c.used += cost
	c.evict()
}

func (c *Cache[K, V]) evict() {
	if c.capacity == 0 {
		return
	}
	for c.used > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry[K, V])
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.used -= e.cost
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(e.key, e.val)
		}
	}
}

// Remove deletes a key if present, returning whether it was cached.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.items, key)
	c.used -= e.cost
	return true
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Used returns the total cost of cached entries.
func (c *Cache[K, V]) Used() uint64 { return c.used }

// Capacity returns the configured cost capacity (0 = unbounded).
func (c *Cache[K, V]) Capacity() uint64 { return c.capacity }

// Stats returns cumulative hit, miss, and eviction counts.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Clear empties the cache without invoking eviction callbacks.
func (c *Cache[K, V]) Clear() {
	c.ll.Init()
	c.items = make(map[K]*list.Element)
	c.used = 0
}
