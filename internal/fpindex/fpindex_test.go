package fpindex

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/vfs"
)

// testOptions keeps memtables tiny so flushes and compactions happen in
// small tests, and compaction synchronous so tests are deterministic.
func testOptions(shards int) Options {
	return Options{
		Shards:          shards,
		MemtableEntries: 16,
		CacheBytes:      1 << 20,
		SyncCompaction:  true,
		Fanout:          3,
	}
}

func testPosting(i int) (fphash.Fingerprint, container.Location) {
	return fphash.FromUint64(uint64(i)*2654435761 + 1), container.Location{Container: i / 8, Index: i % 8}
}

func TestInsertLookup(t *testing.T) {
	ix, err := Open(vfs.OS, t.TempDir(), testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := ix.Shard(0)
	for i := 0; i < 100; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	for i := 0; i < 100; i++ {
		fp, want := testPosting(i)
		loc, ok, err := s.Lookup(fp)
		if err != nil || !ok || loc != want {
			t.Fatalf("Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	if _, ok, _ := s.Lookup(fphash.FromUint64(0xdeadbeef)); ok {
		t.Fatal("found fingerprint that was never inserted")
	}
	if got := ix.Counters().MemtableHits; got != 100 {
		t.Fatalf("MemtableHits = %d, want 100", got)
	}
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	const n = 200 // containers 0..24
	for i := 0; i < n; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	// Flush with 20 sealed containers: postings in containers >= 20 stay
	// in the memtable.
	if err := s.Flush(20); err != nil {
		t.Fatal(err)
	}
	if got := s.MemLen(); got != n-20*8 {
		t.Fatalf("MemLen after flush = %d, want %d", got, n-20*8)
	}
	if s.RunCount() == 0 {
		t.Fatal("flush created no run")
	}
	if got := s.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		fp, want := testPosting(i)
		loc, ok, err := s.Lookup(fp)
		if err != nil || !ok || loc != want {
			t.Fatalf("post-flush Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: runs cover containers < 20, watermark says rescan from 20.
	ix2, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	s2 := ix2.Shard(0)
	if got := s2.Watermark(); got != 20 {
		t.Fatalf("Watermark after reopen = %d, want 20", got)
	}
	// Simulate the caller's container rescan for the tail.
	for i := 20 * 8; i < n; i++ {
		fp, loc := testPosting(i)
		s2.Insert(fp, loc)
	}
	for i := 0; i < n; i++ {
		fp, want := testPosting(i)
		loc, ok, err := s2.Lookup(fp)
		if err != nil || !ok || loc != want {
			t.Fatalf("reopened Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	c := ix2.Counters()
	if c.DiskProbes == 0 {
		t.Fatal("expected disk probes after reopen")
	}
}

func TestBloomNegativeSkipsDisk(t *testing.T) {
	ix, err := Open(vfs.OS, t.TempDir(), testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := ix.Shard(0)
	for i := 0; i < 100; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	if err := s.Flush(100); err != nil {
		t.Fatal(err)
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		if _, ok, _ := s.Lookup(fphash.FromUint64(uint64(i) + 1e12)); !ok {
			miss++
		}
	}
	c := ix.Counters()
	if c.BloomNegative < 900 {
		t.Fatalf("BloomNegative = %d for %d misses, filter not fronting lookups", c.BloomNegative, miss)
	}
}

func TestCompactionMergesRuns(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(1)
	ix, err := Open(vfs.OS, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	// Ten flush cycles of 64 postings: with fanout 3 and sync compaction,
	// runs must collapse well below ten.
	const batch = 64
	for round := 0; round < 10; round++ {
		for i := round * batch; i < (round+1)*batch; i++ {
			fp, loc := testPosting(i)
			s.Insert(fp, loc)
		}
		if err := s.Flush((round + 1) * batch / 8); err != nil {
			t.Fatal(err)
		}
	}
	if rc := s.RunCount(); rc >= 10 || rc == 0 {
		t.Fatalf("RunCount = %d after 10 flushes with fanout 3, compaction not running", rc)
	}
	if err := errors.Join(checkAll(s, 10*batch), ix.Close()); err != nil {
		t.Fatal(err)
	}
	// Reopen and re-verify through the compacted runs.
	ix2, err := Open(vfs.OS, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if err := checkAll(ix2.Shard(0), 10*batch); err != nil {
		t.Fatal(err)
	}
}

func checkAll(s *Shard, n int) error {
	if got := s.Count(); got != n {
		return fmt.Errorf("Count = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		fp, want := testPosting(i)
		loc, ok, err := s.Lookup(fp)
		if err != nil || !ok || loc != want {
			return fmt.Errorf("Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	return nil
}

func TestCorruptRunForcesRescan(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	for i := 0; i < 100; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	if err := s.Flush(13); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	runs, err := filepath.Glob(filepath.Join(dir, "run-0000-*.fdi"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no run files: %v %v", runs, err)
	}
	data, err := os.ReadFile(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[runHeaderLen+3] ^= 0x40 // flip a bit inside the first block
	if err := os.WriteFile(runs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Block corruption is only seen when the block is read: the lookup
	// reports an error, never a wrong location.
	ix2, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := testPosting(0)
	if _, ok, err := ix2.Shard(0).Lookup(fp); ok && err == nil {
		// A hit is only acceptable if the flipped bit missed this
		// posting's block path entirely — but we flipped block 0, which
		// holds every posting here.
		t.Fatal("lookup trusted a corrupt block")
	}
	ix2.Close()

	// Corrupting the footer is caught at open: the shard resets to a
	// full rescan and removes the bad file.
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(runs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix3, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix3.Close()
	if got := ix3.Shard(0).Watermark(); got != 0 {
		t.Fatalf("Watermark after corrupt run = %d, want 0 (full rescan)", got)
	}
	if _, err := os.Stat(runs[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt run file not removed: %v", err)
	}
}

func TestMarkerForcesRescan(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	for i := 0; i < 64; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	if err := s.Flush(8); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginLayoutChange(); err != nil {
		t.Fatal(err)
	}
	// Crash before CompleteLayoutChange: reopen must distrust the runs.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	s2 := ix2.Shard(0)
	if got := s2.Watermark(); got != 0 {
		t.Fatalf("Watermark with marker = %d, want 0", got)
	}
	if got := s2.RunCount(); got != 0 {
		t.Fatalf("RunCount with marker = %d, want 0", got)
	}
	if hasMarker(vfs.OS, dir, 0) {
		t.Fatal("marker not cleared after rescan open")
	}
}

func TestLayoutChangeRewritesPostings(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	for i := 0; i < 100; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	if err := s.Flush(12); err != nil {
		t.Fatal(err)
	}
	// GC-style renumbering: survivors move to fresh dense locations.
	survivors := map[fphash.Fingerprint]container.Location{}
	for i := 0; i < 100; i += 2 {
		fp, _ := testPosting(i)
		survivors[fp] = container.Location{Container: i / 16, Index: i % 16 / 2}
	}
	live := make(map[fphash.Fingerprint]container.Location, len(survivors))
	for fp, loc := range survivors {
		live[fp] = loc
	}
	if err := s.BeginLayoutChange(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLayoutChange(live, 5); err != nil {
		t.Fatal(err)
	}
	check := func(s *Shard) {
		t.Helper()
		if got := s.Count(); got != len(survivors) {
			t.Fatalf("Count = %d, want %d", got, len(survivors))
		}
		for fp, want := range survivors {
			loc, ok, err := s.Lookup(fp)
			if err != nil || !ok || loc != want {
				t.Fatalf("Lookup(%v) = %v %v %v, want %v", fp, loc, ok, err, want)
			}
		}
		fp, _ := testPosting(1)
		if _, ok, _ := s.Lookup(fp); ok {
			t.Fatal("dropped posting still found after layout change")
		}
	}
	check(s)
	if hasMarker(vfs.OS, dir, 0) {
		t.Fatal("marker survived CompleteLayoutChange")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	s2 := ix2.Shard(0)
	if got := s2.Watermark(); got != 5 {
		t.Fatalf("Watermark after layout change = %d, want 5", got)
	}
	// Rescan the open-container tail (containers >= 5).
	for fp, loc := range survivors {
		if loc.Container >= 5 {
			s2.Insert(fp, loc)
		}
	}
	check(s2)
}

func TestShardsIndependent(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < 400; i++ {
		fp, loc := testPosting(i)
		ix.Shard(fp.Shard(4)).Insert(fp, loc)
	}
	for sh := 0; sh < 4; sh++ {
		if err := ix.Shard(sh).Flush(30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		fp, want := testPosting(i)
		loc, ok, err := ix.Shard(fp.Shard(4)).Lookup(fp)
		if err != nil || !ok || loc != want {
			t.Fatalf("Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	total := 0
	for sh := 0; sh < 4; sh++ {
		total += ix.Shard(sh).Count()
	}
	if total != 400 {
		t.Fatalf("total Count = %d, want 400", total)
	}
}

func TestMultiBlockRun(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(1)
	opts.CacheBytes = 1 // effectively no cache: every probe hits disk
	ix, err := Open(vfs.OS, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := ix.Shard(0)
	const n = 3*blockEntries + 17 // four blocks, last one partial
	for i := 0; i < n; i++ {
		fp, loc := testPosting(i)
		s.Insert(fp, loc)
	}
	if err := s.Flush(n); err != nil {
		t.Fatal(err)
	}
	if got := s.MemLen(); got != 0 {
		t.Fatalf("MemLen = %d after full flush", got)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(n)
		fp, want := testPosting(i)
		loc, ok, err := s.Lookup(fp)
		if err != nil || !ok || loc != want {
			t.Fatalf("Lookup(%d) = %v %v %v, want %v", i, loc, ok, err, want)
		}
	}
	if c := ix.Counters(); c.DiskProbes == 0 {
		t.Fatal("expected disk probes with no cache")
	}
}

func TestFlushWatermarkOnlyAdvance(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Shard(0)
	// No postings at all, but 7 sealed (empty/fully-deduplicated)
	// containers: flush must still advance the committed watermark.
	if err := s.Flush(7); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(vfs.OS, dir, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.Shard(0).Watermark(); got != 7 {
		t.Fatalf("Watermark = %d, want 7", got)
	}
	if err := ix2.Shard(0).Flush(3); err == nil {
		t.Fatal("flush accepted a watermark moving backwards")
	}
}
