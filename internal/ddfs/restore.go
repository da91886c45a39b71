package ddfs

import (
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// RestoreStats quantifies the read cost of reconstructing one backup from
// container storage, the concern behind Section 6.2's claim that
// scrambling has "limited impact on the chunk layout across containers"
// because containers (4 MB) are larger than segments. Restores read whole
// containers; the fewer distinct containers a backup's chunks span — and
// the fewer times the restore switches between containers — the better the
// read performance.
type RestoreStats struct {
	// Chunks is the number of chunk references restored.
	Chunks int
	// DistinctContainers is the number of distinct containers holding the
	// backup's chunks.
	DistinctContainers int
	// ContainerSwitches counts adjacent chunk pairs resolved from
	// different containers — the number of container read switches a
	// streaming restore with a single-container read buffer performs.
	ContainerSwitches int
	// ReadsWithCache is the number of container reads performed by a
	// restore that caches the most recent cacheSize containers (LRU), as
	// restore implementations do.
	ReadsWithCache int
}

// ContainerSpread measures restore locality for one backup: each chunk is
// resolved to its stored container, in the backup's logical (recipe)
// order. The restore cache holds cacheContainers container buffers.
func (s *System) ContainerSpread(b *trace.Backup, cacheContainers int) RestoreStats {
	if cacheContainers < 1 {
		cacheContainers = 1
	}
	var st RestoreStats
	distinct := make(map[int]struct{})
	// Tiny LRU of container IDs.
	cache := make([]int, 0, cacheContainers)
	touch := func(id int) bool {
		for i, c := range cache {
			if c == id {
				copy(cache[1:i+1], cache[:i])
				cache[0] = id
				return true
			}
		}
		if len(cache) < cacheContainers {
			cache = append(cache, 0)
		}
		copy(cache[1:], cache)
		cache[0] = id
		return false
	}
	prev := -1
	for _, c := range b.Chunks {
		id, ok := s.Locate(c.FP)
		if !ok {
			continue
		}
		st.Chunks++
		distinct[id] = struct{}{}
		if prev != -1 && id != prev {
			st.ContainerSwitches++
		}
		prev = id
		if !touch(id) {
			st.ReadsWithCache++
		}
	}
	st.DistinctContainers = len(distinct)
	return st
}

// Locate resolves a fingerprint to the container holding its physical
// copy, consulting the open container buffer and the fingerprint index.
func (s *System) Locate(fp fphash.Fingerprint) (int, bool) {
	if id, ok := s.index[fp]; ok {
		return id, true
	}
	// Chunks still buffered in the open container.
	if _, ok := s.buffered[fp]; ok {
		// The open container takes the next ID.
		return len(s.containers), true
	}
	return 0, false
}
