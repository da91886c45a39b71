package dedup

import (
	"context"
	"fmt"

	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
)

// RepairStats aggregates a whole-store repair.
type RepairStats struct {
	// ContainersQuarantined is the number of unreadable containers
	// dropped (and, where the backend supports it, preserved under
	// quarantine/).
	ContainersQuarantined int
	// ChunksLost is the number of distinct chunks the store no longer
	// holds after the repair: entries of quarantined containers plus
	// entries whose content failed fingerprint verification.
	ChunksLost int
	// BytesLost is the measurable total size of the lost chunks.
	BytesLost uint64
	// QuarantinePaths lists the preserved raw records of damaged
	// containers.
	QuarantinePaths []string
}

// Repair is the store-level fsck: every shard is scanned tolerantly,
// containers that cannot be read are quarantined and dropped, entries
// whose content no longer matches their fingerprint are dropped, the
// survivors are repacked densely, and the fingerprint index is rebuilt
// from the surviving layout — so after a nil return, Contains, Get, and
// Restore agree exactly with what is physically readable, and a
// FileBackend opened in salvage mode is writable again.
//
// Repair stops the world: every shard is locked for the duration, like
// GC. Reference counts are untouched (they describe what snapshots
// reference, not what the store holds); callers tracking retention
// should follow a damaging repair with ResetRetention + re-registration
// so GC never double-decrements a lost chunk. Cancelling ctx between
// shards returns ctx.Err(); already-repaired shards keep their repaired
// state.
func (s *Store) Repair(ctx context.Context) (RepairStats, error) {
	s.lockAll()
	defer s.unlockAll()
	var total RepairStats
	for si, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		// Same layout-change protocol as GC: repair renumbers containers,
		// so the index marks the rewrite durably first.
		if err := sh.index.BeginLayoutChange(); err != nil {
			return total, fmt.Errorf("dedup: repair shard %d: mark index: %w", si, err)
		}
		oldCount := sh.index.Count()
		newIndex := make(map[fphash.Fingerprint]container.Location, oldCount)
		var newBytes uint64
		st, err := sh.containers.Repair(func(e container.Entry, loc container.Location) {
			newIndex[e.FP] = loc
			newBytes += uint64(e.Size)
		})
		if err != nil {
			if aerr := sh.index.AbortLayoutChange(); aerr != nil {
				return total, fmt.Errorf("dedup: repair shard %d: %w (and unmark index: %v)", si, err, aerr)
			}
			return total, fmt.Errorf("dedup: repair shard %d: %w", si, err)
		}
		// Chunks lost = index shrinkage, not the raw entry count: a
		// duplicate entry dropped while another copy survives loses
		// nothing.
		survivors := len(newIndex)
		lost := oldCount - survivors
		if lost < 0 {
			lost = 0
		}
		if err := sh.index.CompleteLayoutChange(newIndex, sh.containers.Sealed()); err != nil {
			return total, fmt.Errorf("dedup: repair shard %d: rebuild index: %w", si, err)
		}
		// Post-repair statistics follow reopen semantics: each surviving
		// unique chunk counts once; cross-repair logical history is gone.
		sh.physicalBytes = newBytes
		sh.logicalBytes = newBytes
		sh.logicalChunks = survivors
		total.ContainersQuarantined += st.ContainersQuarantined
		total.ChunksLost += lost
		total.BytesLost += st.BytesLost
		total.QuarantinePaths = append(total.QuarantinePaths, st.QuarantinePaths...)
	}
	return total, nil
}
