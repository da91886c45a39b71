package freqdedup

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"freqdedup/internal/dedup"
)

// steadySnapshotBytes is the size of each never-seen snapshot the
// allocation guard backs up and restores.
const steadySnapshotBytes = 4 << 20

// allocPerByte runs fn and returns the heap bytes it allocated per byte
// of n.
func allocPerByte(n int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), err
}

// TestBackupRestoreSteadyStateAllocs holds the byte paths to recycling
// their buffers: the chunk buffers the backup workers encrypt in place,
// the pooled arenas the store packs containers in, and the container
// buffers the restore window reads into. On a file-backed repository a
// never-seen 4 MiB backup from the third on must allocate under 0.4 bytes
// per byte it moves (a fresh ciphertext per chunk alone is 1.0), and a
// restore after a reopen, from the second on, under 0.3. A window is
// retried, as the chunker's steady-state test does, since a collection or
// a P migration can empty a pool mid-window, and the first windows still
// grow the pools; every window backs up or restores bytes it has not moved
// before. The restore buffers are back in their pool afterwards.
func TestBackupRestoreSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const backupLimit, restoreLimit, snapshots = 0.4, 0.3, 8
	ctx := context.Background()
	dir := t.TempDir()
	repo, err := CreateRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	sums := make([][sha256.Size]byte, snapshots)
	// A collection empties the pools, so none may run from the first
	// backup on.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var seen []string
	passed := false
	data := make([]byte, steadySnapshotBytes)
	for i := range sums {
		rng.Read(data)
		sums[i] = sha256.Sum256(data)
		perByte, err := allocPerByte(len(data), func() error {
			_, err := repo.Backup(ctx, fmt.Sprintf("g%d", i), bytes.NewReader(data))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			seen = append(seen, fmt.Sprintf("g%d %.3f", i, perByte))
			passed = passed || perByte < backupLimit
		}
	}
	t.Logf("backup allocations per byte: %v", seen)
	if !passed {
		t.Fatalf("backup allocations per byte, per window: %v; want under %.1f in some window", seen, backupLimit)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	if repo, err = OpenRepository(dir); err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	baseline := dedup.RestoreBufsOutstanding()
	var out bytes.Buffer
	out.Grow(steadySnapshotBytes)
	seen, passed = nil, false
	for i := range sums {
		out.Reset()
		perByte, err := allocPerByte(steadySnapshotBytes, func() error {
			return repo.Restore(ctx, fmt.Sprintf("g%d", i), &out)
		})
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(out.Bytes()) != sums[i] {
			t.Fatalf("restore of g%d returned other bytes", i)
		}
		if i >= 1 {
			seen = append(seen, fmt.Sprintf("g%d %.3f", i, perByte))
			passed = passed || perByte < restoreLimit
		}
	}
	t.Logf("restore allocations per byte: %v", seen)
	if !passed {
		t.Fatalf("restore allocations per byte, per window: %v; want under %.1f in some window", seen, restoreLimit)
	}
	if got := dedup.RestoreBufsOutstanding(); got != baseline {
		t.Fatalf("%d pooled restore buffers outstanding after the restores, want %d", got, baseline)
	}
}
