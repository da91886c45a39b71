// Package gcommit implements leader-based group commit: many goroutines
// append records to a shared durable file, then each calls Commit with
// its append's sequence number; one of them becomes the leader, runs the
// file's fsync once, and that single sync acknowledges every append that
// landed before the leader captured its target. Batching comes only from
// absorption: commits that arrive while a sync is in flight ride the next
// round together, so under concurrency N commits collapse into far fewer
// syncs, while a lone commit never waits — it syncs at once, exactly the
// fsync-per-mutation behavior.
//
// The invariant the package exists to keep: Commit(seq) returns nil only
// after a sync that covers seq — one whose fsync call started after the
// seq'th append completed — has itself returned. No caller is ever
// acknowledged ahead of its durability barrier.
package gcommit

import "sync"

// Committer coordinates group commit over one durable resource. The
// caller owns a monotonically increasing sequence counter: it assigns
// the next sequence to each append while holding whatever lock orders
// the appends, then calls Commit(seq) with no locks held.
type Committer struct {
	mu   sync.Mutex
	cond *sync.Cond

	// syncFn runs the durability barrier (fsync). It is called with no
	// Committer lock held, and never concurrently with itself.
	syncFn func() error
	// sticky: a sync failure permanently poisons the committer (append
	// streams whose file tail is now in an unknown durable state). When
	// false, a failed round fails only the commits waiting on it, and
	// later commits retry with fresh rounds (idempotent barriers like
	// container-seal passes).
	sticky bool

	appended    int64 // highest sequence any Commit has announced
	durable     int64 // highest sequence covered by a successful sync
	syncing     bool  // a leader is inside the sync
	err         error // sticky poison (sticky mode only)
	round       int64 // completed sync rounds
	failedRound int64 // round id of the most recent failed round
	lastErr     error // error of the most recent failed round
	syncs       int64 // successful syncFn calls, for batching assertions
}

// New returns a Committer running syncFn as its durability barrier.
func New(syncFn func() error, sticky bool) *Committer {
	c := &Committer{syncFn: syncFn, sticky: sticky}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Err returns the sticky poison error, if a sticky committer has seen a
// sync failure. Callers check it before appending new records behind an
// unsynced, doomed tail.
func (c *Committer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Durable returns the highest sequence covered by a successful sync.
func (c *Committer) Durable() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durable
}

// Syncs returns how many successful sync rounds have run — the
// denominator of the batching ratio, for tests and stats.
func (c *Committer) Syncs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// MarkDurable records that every sequence up to seq is durable through
// some out-of-band barrier (e.g. a compaction that rewrote, synced, and
// renamed the whole file). Waiting commits covered by seq are released.
func (c *Committer) MarkDurable(seq int64) {
	c.mu.Lock()
	if seq > c.appended {
		c.appended = seq
	}
	if seq > c.durable {
		c.durable = seq
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// Commit blocks until a sync covering seq has returned, leading the sync
// itself if none is running. It returns nil once seq is durable; the
// failing sync's error if the round covering this commit failed; or the
// sticky poison for every commit after a sticky committer's first
// failure.
func (c *Committer) Commit(seq int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq > c.appended {
		c.appended = seq
	}
	entryRound := c.round
	for {
		if c.err != nil {
			return c.err
		}
		if c.durable >= seq {
			return nil
		}
		if c.failedRound > entryRound {
			// A sync failed while this commit was waiting: its records
			// may or may not be durable — fail it rather than guess.
			return c.lastErr
		}
		if c.syncing {
			c.cond.Wait()
			continue
		}
		// Lead a round.
		c.syncing = true
		// Capture the target BEFORE the sync: fsync only guarantees
		// writes issued before the call, so sequences appended while the
		// sync is in flight wait for the next round.
		target := c.appended
		c.mu.Unlock()
		err := c.syncFn()
		c.mu.Lock()
		c.syncing = false
		c.round++
		if err != nil {
			c.lastErr = err
			c.failedRound = c.round
			if c.sticky {
				c.err = err
			}
		} else {
			c.syncs++
			if target > c.durable {
				c.durable = target
			}
		}
		c.cond.Broadcast()
	}
}
