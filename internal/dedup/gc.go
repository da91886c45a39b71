package dedup

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// Backup retention and garbage collection. Deduplicated storage cannot
// delete chunks when a backup expires — other backups may reference them.
// The store therefore tracks reference counts per unique chunk, registered
// per backup, and a mark-and-sweep style collector reclaims chunks whose
// count drops to zero, compacting the containers they lived in (the
// "physical garbage collection" problem of deduplicating storage that the
// paper's DDFS lineage deals with in production).
//
// Retention state is store-level (backups span shards) under retMu; the
// sweep takes retMu and then every shard lock in index order, rewriting
// each shard's containers independently.

// ErrUnknownBackup is returned when deleting a backup ID that was never
// registered.
var ErrUnknownBackup = errors.New("dedup: unknown backup id")

// RegisterBackup records a completed backup's chunk references for later
// retention management. The recipe is the one returned by Client.Backup.
// Backup IDs are caller-chosen and must be unique.
func (s *Store) RegisterBackup(id string, recipe *mle.Recipe) error {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	if s.backups == nil {
		s.backups = make(map[string][]fphash.Fingerprint)
	}
	if _, ok := s.backups[id]; ok {
		return fmt.Errorf("dedup: backup %q already registered", id)
	}
	if s.refs == nil {
		s.refs = make(map[fphash.Fingerprint]int)
	}
	// Count each unique ciphertext chunk once per backup: retention is
	// per-backup, not per-occurrence.
	seen := make(map[fphash.Fingerprint]struct{}, len(recipe.Entries))
	fps := make([]fphash.Fingerprint, 0, len(recipe.Entries))
	for _, e := range recipe.Entries {
		if _, ok := seen[e.Fingerprint]; ok {
			continue
		}
		seen[e.Fingerprint] = struct{}{}
		fps = append(fps, e.Fingerprint)
		s.refs[e.Fingerprint]++
	}
	s.backups[id] = fps
	return nil
}

// DeleteBackup drops a backup's references. Chunks are not reclaimed until
// GC runs.
func (s *Store) DeleteBackup(id string) error {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	fps, ok := s.backups[id]
	if !ok {
		return ErrUnknownBackup
	}
	delete(s.backups, id)
	for _, fp := range fps {
		if s.refs[fp] <= 1 {
			delete(s.refs, fp)
		} else {
			s.refs[fp]--
		}
	}
	return nil
}

// ResetRetention drops every registered backup and all reference counts,
// so retention can be rebuilt from an authoritative catalog — the step
// after a damaging Repair, where stale references to lost chunks would
// otherwise skew GC decisions.
func (s *Store) ResetRetention() {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	s.backups = nil
	s.refs = nil
}

// Backups lists the registered backup IDs in sorted order, so the listing
// is deterministic rather than leaking map iteration order.
func (s *Store) Backups() []string {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	out := make([]string, 0, len(s.backups))
	for id := range s.backups {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// GCStats reports what a garbage collection pass reclaimed.
type GCStats struct {
	// ChunksReclaimed is the number of unique chunks deleted.
	ChunksReclaimed int
	// BytesReclaimed is the physical storage freed.
	BytesReclaimed uint64
	// ContainersRewritten is the number of containers compacted to drop
	// dead chunks.
	ContainersRewritten int
}

// GC reclaims chunks that no registered backup references, compacting
// their containers shard by shard through the storage backend (a
// file-backed shard is rewritten to a fresh file and atomically renamed).
// Chunks stored before any backup was registered are treated as
// unreferenced, so callers using retention must register every backup.
// Locations of surviving chunks change; each shard's fingerprint index is
// rebuilt accordingly. GC stops the world: it holds the retention lock
// and every shard lock for the duration of the sweep.
//
// On a backend error the sweep stops: shards compacted before the failure
// keep their compacted state (each shard's rewrite is atomic — it either
// fully happened or did not), the failing shard is unchanged, and the
// partial statistics are returned alongside the error. Re-running GC
// after the fault clears completes the sweep.
func (s *Store) GC() (GCStats, error) {
	return s.GCContext(context.Background())
}

// GCContext is GC with cancellation: the sweep checks ctx between shards
// and stops with ctx.Err() alongside the partial statistics. Shards swept
// before the cancellation keep their compacted state (each shard's rewrite
// is atomic), exactly like GC's backend-error contract; re-running GC
// completes the sweep.
func (s *Store) GCContext(ctx context.Context) (GCStats, error) {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	s.lockAll()
	defer s.unlockAll()

	var st GCStats
	// Determine live fingerprints.
	live := func(e container.Entry) bool {
		return s.refs[e.FP] > 0
	}

	// Compact each shard's containers, keeping live chunks in their
	// existing order. Shards are independent: a fingerprint never moves
	// between shards, so each rebuild only consults its own index.
	for i, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		// The index durably marks the layout change before the rewrite:
		// run files record pre-compaction container IDs, so a crash between
		// the container rewrite and the index rebuild must force a full
		// rescan on the next open.
		if err := sh.index.BeginLayoutChange(); err != nil {
			return st, fmt.Errorf("dedup: gc shard %d: mark index: %w", i, err)
		}
		newIndex := make(map[fphash.Fingerprint]container.Location, sh.index.Count())
		cst, err := sh.containers.Compact(live, func(e container.Entry, loc container.Location) {
			newIndex[e.FP] = loc
		})
		if err != nil {
			// The shard's rewrite is atomic, so a failure means the old
			// layout is intact — the index can keep serving it.
			if aerr := sh.index.AbortLayoutChange(); aerr != nil {
				return st, fmt.Errorf("dedup: gc shard %d: %w (and unmark index: %v)", i, err, aerr)
			}
			return st, fmt.Errorf("dedup: gc shard %d: %w", i, err)
		}
		if err := sh.index.CompleteLayoutChange(newIndex, sh.containers.Sealed()); err != nil {
			return st, fmt.Errorf("dedup: gc shard %d: rebuild index: %w", i, err)
		}
		sh.physicalBytes -= cst.BytesDropped
		st.ChunksReclaimed += cst.EntriesDropped
		st.BytesReclaimed += cst.BytesDropped
		st.ContainersRewritten += cst.ContainersRewritten
	}
	return st, nil
}
