package faultio

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
)

// ErrInjected is the default error a firing fault rule returns. Every
// injected error wraps it, so tests can assert errors.Is(err, ErrInjected)
// regardless of the rule's custom error.
var ErrInjected = errors.New("faultio: injected fault")

// ErrCrashed is returned by every operation at and after a plan's crash
// point: the simulated machine is down, and nothing volatile survives.
var ErrCrashed = errors.New("faultio: crashed (simulated)")

// Op names one operation class a Rule can match, as MemFS observes it.
// OpAny matches everything.
type Op string

const (
	OpAny      Op = ""
	OpWrite    Op = "write" // Write and WriteAt
	OpRead     Op = "read"  // ReadAt
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpCreate   Op = "create" // OpenFile that creates
	OpOpen     Op = "open"   // open of an existing file
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpStat     Op = "stat"
)

// Fault is what happens when a Rule fires.
type Fault struct {
	// Err is the error to return (ErrInjected if nil). The returned error
	// always wraps ErrInjected.
	Err error
	// ShortWrite applies only to write operations: a seeded-random prefix
	// of the buffer is written before the error returns — a torn write.
	ShortWrite bool
	// FlipBit corrupts instead of failing: on a write, one seeded-random
	// bit of the buffer flips in flight; on a sync, one bit of the
	// already-durable (synced) content flips — modeling post-fsync media
	// corruption. The operation then succeeds with a nil error: silent
	// corruption, the kind only checksums catch.
	FlipBit bool
}

// Rule arms one fault: when an operation matching Op and PathGlob is
// observed for the Nth time, the Fault fires (Count times in a row).
type Rule struct {
	// Op selects the operation class (OpAny = every operation).
	Op Op
	// PathGlob is a filepath.Match pattern tried against both the
	// operation's full path and its base name ("" = any path).
	PathGlob string
	// Nth is the 1-based match index at which the rule starts firing
	// (0 means 1: fire on the first match).
	Nth int
	// Count is how many consecutive matches fire (0 means 1; negative
	// means every match from Nth on).
	Count int
	// Fault is what firing does.
	Fault Fault
}

// Plan is a deterministic fault schedule: a seed for every random choice
// the injector makes (short-write lengths, flipped bit positions), an
// optional crash point, and the armed rules. The zero Plan injects
// nothing.
type Plan struct {
	// Seed feeds the injector's private rand.Rand; the same plan against
	// the same workload injects byte-identical faults. A zero seed is
	// used as-is (still deterministic).
	Seed int64
	// CrashAtOp, when positive, crashes the simulated machine at mutating
	// operation number CrashAtOp (1-based): that operation and every
	// later one fail with ErrCrashed, and everything not fsynced is
	// discarded from the crash image.
	CrashAtOp int64
	// Rules are the armed faults, evaluated in order; the first matching
	// rule fires.
	Rules []Rule
}

// Injector is MemFS's rule-matching engine: it counts operations, tracks rule matches, decides crash
// points, and owns the plan's seeded randomness. An Injector is safe for
// concurrent use.
type Injector struct {
	mu         sync.Mutex
	plan       Plan
	rng        *rand.Rand
	hits       []int
	ops        int64
	crashed    bool
	syncPoints []int64
}

// NewInjector returns an injector armed with the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
		hits: make([]int, len(plan.Rules)),
	}
}

// observe advances the injector for one operation: mutating operations
// tick the crash clock, and the first matching rule (if any) is returned
// along with any crash error. A sync that survives is recorded as a sync
// point.
func (in *Injector) observe(op Op, path string, mutating bool) (Fault, bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return Fault{}, false, ErrCrashed
	}
	if mutating {
		in.ops++
		if in.plan.CrashAtOp > 0 && in.ops >= in.plan.CrashAtOp {
			in.crashed = true
			return Fault{}, false, ErrCrashed
		}
	}
	for i, r := range in.plan.Rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.PathGlob != "" {
			full, _ := filepath.Match(r.PathGlob, path)
			base, _ := filepath.Match(r.PathGlob, filepath.Base(path))
			if !full && !base {
				continue
			}
		}
		in.hits[i]++
		nth := r.Nth
		if nth <= 0 {
			nth = 1
		}
		count := r.Count
		if count == 0 {
			count = 1
		}
		if in.hits[i] < nth {
			continue
		}
		if count > 0 && in.hits[i] >= nth+count {
			continue
		}
		return r.Fault, true, nil
	}
	if op == OpSync && mutating {
		in.syncPoints = append(in.syncPoints, in.ops)
	}
	return Fault{}, false, nil
}

// err turns a fired fault into the operation's error. A FlipBit fault
// returns nil — the corruption is the caller's to apply.
func (f Fault) err() error {
	switch {
	case f.FlipBit:
		return nil
	case f.Err == nil:
		return ErrInjected
	default:
		return fmt.Errorf("%w: %w", ErrInjected, f.Err)
	}
}

// rand runs fn with the injector's seeded rand under the lock.
func (in *Injector) random(fn func(*rand.Rand)) {
	in.mu.Lock()
	fn(in.rng)
	in.mu.Unlock()
}

// OpCount returns how many mutating operations the injector has observed
// — the crash clock. Running a workload once with no crash point and
// reading OpCount bounds the crash-point sweep.
func (in *Injector) OpCount() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// SyncPoints returns the mutating-op numbers at which a sync was
// acknowledged — the interesting crash points: crashing anywhere between
// two sync points is equivalent to crashing right before the later one,
// plus or minus data that was never acknowledged anyway.
func (in *Injector) SyncPoints() []int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]int64, len(in.syncPoints))
	copy(out, in.syncPoints)
	return out
}
