package dedup

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// corruptBackend wraps a Backend and fails Load (and Get-through-Scan
// stays honest: Scan is untouched, so index rebuilds still work) with
// container.ErrCorrupt for chosen containers — the deterministic stand-in
// for a post-fsync media error caught by the record CRC.
type corruptBackend struct {
	container.Backend
	mu  sync.Mutex
	bad map[containerRef]bool
}

func (b *corruptBackend) markBad(ref containerRef) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bad == nil {
		b.bad = make(map[containerRef]bool)
	}
	b.bad[ref] = true
}

func (b *corruptBackend) Load(shard, id int, buf *[]byte) (*container.Container, error) {
	b.mu.Lock()
	bad := b.bad[containerRef{shard: shard, id: id}]
	b.mu.Unlock()
	if bad {
		return nil, container.ErrCorrupt
	}
	return b.Backend.Load(shard, id, buf)
}

// degradedFixture backs up ~1 MiB into small containers, seals
// everything, and marks the container of a mid-stream chunk corrupt.
// It returns the client, the original bytes, and the expected lost
// regions (every recipe entry whose chunk lives in the bad container).
func degradedFixture(t *testing.T, cfg Config) (*Client, *mle.Recipe, []byte, []LostRange) {
	t.Helper()
	data := randData(17, 1<<20)
	cb := &corruptBackend{Backend: container.NewMemBackend(DefaultShards)}
	store, err := NewStoreWithBackend(32<<10, cb)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the container of a chunk in the middle of the stream.
	mid := len(recipe.Entries) / 2
	ref, _, ok, err := store.locate(recipe.Entries[mid].Fingerprint)
	if err != nil || !ok {
		t.Fatalf("mid-stream chunk not located (err=%v)", err)
	}
	cb.markBad(ref)

	// Every entry stored in that container is now unrecoverable.
	var lost []LostRange
	var off uint64
	for _, e := range recipe.Entries {
		if r, _, ok, _ := store.locate(e.Fingerprint); ok && r == ref {
			lost = append(lost, LostRange{Offset: off, Length: uint64(e.Size), Fingerprint: e.Fingerprint})
		}
		off += uint64(e.Size)
	}
	if len(lost) == 0 {
		t.Fatal("fixture: no entries mapped to the corrupted container")
	}
	return client, recipe, data, lost
}

// checkDegradedOutput asserts out is exact outside the lost ranges and
// zero inside them.
func checkDegradedOutput(t *testing.T, data, out []byte, lost []LostRange) {
	t.Helper()
	if len(out) != len(data) {
		t.Fatalf("degraded output %d bytes, want %d", len(out), len(data))
	}
	expect := append([]byte(nil), data...)
	for _, r := range lost {
		for i := r.Offset; i < r.Offset+r.Length; i++ {
			expect[i] = 0
		}
	}
	if !bytes.Equal(out, expect) {
		t.Fatal("degraded output differs outside/inside the reported lost ranges")
	}
}

// TestRestoreCorruptContainerStrict: without DegradedRestore, a corrupt
// container mid-stream fails the restore, with one worker and with many,
// with an error wrapping container.ErrCorrupt, the workers drain without
// deadlock, and every pooled buffer comes back (run under -race, this is
// the propagation proof).
func TestRestoreCorruptContainerStrict(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Workers: 1}},
		{"parallel", Config{Workers: 8}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			client, recipe, _, _ := degradedFixture(t, mode.cfg)
			baseline := bufpool.Outstanding()
			var out bytes.Buffer
			err := client.Restore(recipe, &out)
			if !errors.Is(err, container.ErrCorrupt) {
				t.Fatalf("restore over corrupt container: %v, want container.ErrCorrupt", err)
			}
			var de *DegradedError
			if errors.As(err, &de) {
				t.Fatal("strict restore returned a DegradedError")
			}
			if got := bufpool.Outstanding(); got != baseline {
				t.Fatalf("%+v pooled buffers outstanding after failed restore, want %+v", got, baseline)
			}
		})
	}
}

// TestRestoreDegraded: with DegradedRestore, the restore completes — with
// one worker, with many, and with the window forced down to one container
// at a time ("NoCache") — with zero-filled holes exactly at the corrupted
// container's chunks, reports them through an errors.As-retrievable
// *DegradedError in stream order, and leaks no pooled buffers.
func TestRestoreDegraded(t *testing.T) {
	for _, mode := range []struct {
		name     string
		cfg      Config
		noWindow bool
	}{
		{"serial", Config{Workers: 1, DegradedRestore: true}, false},
		{"parallel", Config{Workers: 8, DegradedRestore: true}, false},
		{"parallelNoCache", Config{Workers: 4, DegradedRestore: true}, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			client, recipe, data, lost := degradedFixture(t, mode.cfg)
			if mode.noWindow {
				forceWindow(client, 0)
			}
			baseline := bufpool.Outstanding()
			var out bytes.Buffer
			err := client.Restore(recipe, &out)
			var de *DegradedError
			if !errors.As(err, &de) {
				t.Fatalf("degraded restore error = %v, want *DegradedError", err)
			}
			if len(de.Ranges) != len(lost) {
				t.Fatalf("reported %d lost ranges, want %d", len(de.Ranges), len(lost))
			}
			for i, r := range de.Ranges {
				if r != lost[i] {
					t.Fatalf("lost range %d = %+v, want %+v", i, r, lost[i])
				}
			}
			checkDegradedOutput(t, data, out.Bytes(), lost)
			if got := bufpool.Outstanding(); got != baseline {
				t.Fatalf("%+v pooled buffers outstanding after degraded restore, want %+v", got, baseline)
			}
		})
	}
}

// TestRestoreDegradedMissingChunk: a chunk absent from the index entirely
// (deleted by repair, never uploaded) zero-fills the same way: the plan
// has no container for it, so its slab resolves it by point lookup.
func TestRestoreDegradedMissingChunk(t *testing.T) {
	data := randData(23, 256<<10)
	store := NewStoreWithShards(32<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 4, DegradedRestore: true})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Drop a mid-stream chunk from its shard's index, as repair would: a
	// layout change whose live set leaves it out.
	mid := len(recipe.Entries) / 2
	fp := recipe.Entries[mid].Fingerprint
	si := fp.Shard(store.ShardCount())
	sh := store.shards[si]
	sh.mu.Lock()
	live := map[fphash.Fingerprint]container.Location{}
	keep := func(c *container.Container) {
		for j, e := range c.Entries {
			if e.FP != fp {
				live[e.FP] = container.Location{Container: c.ID, Index: j}
			}
		}
	}
	err = store.backend.Scan(si, false, func(c *container.Container) error { keep(c); return nil })
	if cur := sh.containers.Current(); err == nil && cur != nil {
		keep(cur)
	}
	if err == nil {
		err = sh.index.CompleteLayoutChange(live, sh.containers.Sealed())
	}
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	var lost []LostRange
	var off uint64
	for _, e := range recipe.Entries {
		if e.Fingerprint == fp {
			lost = append(lost, LostRange{Offset: off, Length: uint64(e.Size), Fingerprint: fp})
		}
		off += uint64(e.Size)
	}
	var out bytes.Buffer
	err = client.Restore(recipe, &out)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("restore with missing chunk = %v, want *DegradedError", err)
	}
	if len(de.Ranges) != len(lost) {
		t.Fatalf("reported %d lost ranges, want %d", len(de.Ranges), len(lost))
	}
	checkDegradedOutput(t, data, out.Bytes(), lost)
}
