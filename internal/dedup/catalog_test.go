package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/vfs"
)

func testRecord(name string, seq byte) SnapshotRecord {
	return SnapshotRecord{
		Name:         name,
		CreatedUnix:  1700000000 + int64(seq),
		LogicalBytes: uint64(seq) * 1000,
		Chunks:       uint32(seq) * 10,
		SealedRecipe: bytes.Repeat([]byte{seq}, 64+int(seq)),
	}
}

func catalogPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), CatalogName)
}

func TestCatalogRoundTrip(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := []SnapshotRecord{testRecord("alpha", 1), testRecord("beta", 2), testRecord("gamma", 3)}
	// Add out of name order; List must sort.
	for _, i := range []int{2, 0, 1} {
		if err := c.Add(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(want[0]); !errors.Is(err, ErrSnapshotExists) {
		t.Fatalf("duplicate add: err = %v, want ErrSnapshotExists", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.List()
	if len(got) != len(want) {
		t.Fatalf("replayed %d snapshots, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.CreatedUnix != w.CreatedUnix ||
			g.LogicalBytes != w.LogicalBytes || g.Chunks != w.Chunks ||
			!bytes.Equal(g.SealedRecipe, w.SealedRecipe) {
			t.Fatalf("snapshot %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestCatalogDeleteSurvivesReopen(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		if err := c.Add(testRecord(fmt.Sprintf("snap-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("snap-2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("snap-2"); !errors.Is(err, ErrSnapshotNotFound) {
		t.Fatalf("double delete: err = %v, want ErrSnapshotNotFound", err)
	}
	c.Close()

	reopened, err := OpenCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.List()
	if len(got) != 2 || got[0].Name != "snap-1" || got[1].Name != "snap-3" {
		names := make([]string, len(got))
		for i, r := range got {
			names[i] = r.Name
		}
		t.Fatalf("replayed %v, want [snap-1 snap-3]", names)
	}
}

// TestCatalogTornTail simulates a crash mid-append at several truncation
// points: every prefix that cuts into the final record must replay to the
// state before that record, and the file must be usable for further
// appends afterwards.
func TestCatalogTornTail(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("keep", 1)); err != nil {
		t.Fatal(err)
	}
	goodSize := c.size
	if err := c.Add(testRecord("torn", 2)); err != nil {
		t.Fatal(err)
	}
	fullSize := c.size
	c.Close()

	for cut := goodSize + 1; cut < fullSize; cut += (fullSize - goodSize - 2) / 3 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tornPath := filepath.Join(t.TempDir(), CatalogName)
		if err := os.WriteFile(tornPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tc, err := OpenCatalogFS(vfs.OS, tornPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if got := tc.List(); len(got) != 1 || got[0].Name != "keep" {
			t.Fatalf("cut=%d: replayed %d snapshots, want only \"keep\"", cut, len(got))
		}
		// The torn tail must have been truncated so appends work again.
		if err := tc.Add(testRecord("after-crash", 3)); err != nil {
			t.Fatalf("cut=%d: append after torn-tail recovery: %v", cut, err)
		}
		tc.Close()
		tc2, err := OpenCatalogFS(vfs.OS, tornPath)
		if err != nil {
			t.Fatalf("cut=%d: reopen after recovery append: %v", cut, err)
		}
		if tc2.Len() != 2 {
			t.Fatalf("cut=%d: %d snapshots after recovery append, want 2", cut, tc2.Len())
		}
		tc2.Close()
	}
}

// TestCatalogTailChecksumTreatedAsTorn: a final record whose bytes are all
// present but whose CRC fails (a crash caught the append mid-write) is
// discarded like a torn tail, not reported as corruption.
func TestCatalogTailChecksumTreatedAsTorn(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("keep", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("flipped", 2)); err != nil {
		t.Fatal(err)
	}
	fullSize := c.size
	c.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the last record's payload.
	if _, err := f.WriteAt([]byte{0xFF}, fullSize-10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatalf("tail checksum failure should recover, got %v", err)
	}
	defer reopened.Close()
	if got := reopened.List(); len(got) != 1 || got[0].Name != "keep" {
		t.Fatalf("replayed %d snapshots, want only \"keep\"", len(got))
	}
}

// TestCatalogMidFileCorruptionDetected: damage to a non-tail record is
// corruption, not crash recovery — it must surface as ErrCatalogCorrupt.
func TestCatalogMidFileCorruptionDetected(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("first", 1)); err != nil {
		t.Fatal(err)
	}
	firstEnd := c.size
	if err := c.Add(testRecord("second", 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the first record (not the tail one).
	if _, err := f.WriteAt([]byte{0xFF}, firstEnd-10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := OpenCatalogFS(vfs.OS, path); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("err = %v, want ErrCatalogCorrupt", err)
	}
}

// TestCatalogCompaction: deletes trigger compaction once tombstones
// outnumber live snapshots; the compacted file replays to the same state
// and has shed the dead records.
func TestCatalogCompaction(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := c.Add(testRecord(fmt.Sprintf("snap-%02d", i), byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Delete(fmt.Sprintf("snap-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.tombstones >= 10 {
		t.Fatalf("%d tombstones after 10 deletes, want auto-compaction to have run", c.tombstones)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("catalog did not shrink: %d -> %d bytes", grown.Size(), compacted.Size())
	}
	// The compacted catalog still appends and replays correctly.
	if err := c.Add(testRecord("post-compact", 99)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	reopened, err := OpenCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.List()
	if len(got) != 3 {
		t.Fatalf("replayed %d snapshots, want 3", len(got))
	}
	if got[0].Name != "post-compact" || got[1].Name != "snap-10" || got[2].Name != "snap-11" {
		t.Fatalf("unexpected survivors: %v, %v, %v", got[0].Name, got[1].Name, got[2].Name)
	}
}

func TestCatalogCreateRefusesExisting(t *testing.T) {
	path := catalogPath(t)
	c, err := CreateCatalogFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := CreateCatalogFS(vfs.OS, path); err == nil {
		t.Fatal("CreateCatalogFS over an existing catalog succeeded")
	}
}

// TestMemCatalog runs the catalog's whole lifecycle over an in-memory
// filesystem, the one an in-memory repository uses.
func TestMemCatalog(t *testing.T) {
	fsys := vfs.NewMem()
	c, err := CreateCatalogFS(fsys, "repo/"+CatalogName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if got := c.List(); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("List() = %v", got)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted snapshot still visible")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testRecord("c", 3)); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := c.Compact(); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
	c, err = OpenCatalogFS(fsys, "repo/"+CatalogName)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.List(); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("List() after reopen = %v", got)
	}
}
