package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
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
	goodSize := fileSize(t, path)
	if err := c.Add(testRecord("torn", 2)); err != nil {
		t.Fatal(err)
	}
	fullSize := fileSize(t, path)
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
	fullSize := fileSize(t, path)
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
	firstEnd := fileSize(t, path)
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

// memBytes returns the bytes of path on fsys.
func memBytes(t testing.TB, fsys vfs.FS, path string) []byte {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return data
}

// TestCatalogBytesPinned builds a catalog from fixed inputs and holds the
// file, at three points of its life, to SHA-256 sums recorded from the
// format's first writer: a change here is an on-disk format change.
func TestCatalogBytesPinned(t *testing.T) {
	fsys := vfs.NewMem()
	c, err := CreateCatalogFS(fsys, CatalogName)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pin := func(stage, want string) {
		t.Helper()
		sum := sha256.Sum256(memBytes(t, fsys, CatalogName))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: catalog sha256 %s, pinned %s", stage, got, want)
		}
	}
	for i := 0; i < 12; i++ {
		if err := c.Add(testRecord(fmt.Sprintf("snap-%02d", i), byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 0, 7} {
		if err := c.Delete(fmt.Sprintf("snap-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	pin("12 adds, 3 deletes", "3d020e37583a8daa80e00400bd810f7f2eb569c33831d91adf0363462f896779")
	// The eighth tombstone outnumbers the four live snapshots left, so
	// this Delete compacts.
	for _, i := range []int{1, 2, 4, 5, 6} {
		if err := c.Delete(fmt.Sprintf("snap-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.tombstones != 0 {
		t.Fatalf("%d tombstones after the eighth delete, want a compaction", c.tombstones)
	}
	pin("auto-compacted", "673af1effee95a3af50a3f41a88c7dab5a19f70378e713003afa572f1b955542")
	if err := c.Add(testRecord("after", 42)); err != nil {
		t.Fatal(err)
	}
	pin("add after compaction", "fc5040aefb0bd3b1b107eb44446a937c662d0697192ad11c2e05366255aa4b70")
}

// FuzzCatalog damages a catalog built from a fixed sequence of
// mutations — one XOR, a cut, appended bytes — and opens it as its
// owner. The open must either fail with ErrCatalogCorrupt, leaving the
// file as it found it, or replay exactly the state after some prefix of
// the mutations, whose bytes are intact in the damaged file: damage may
// cost records only at the tail, the torn append a crash leaves.
func FuzzCatalog(f *testing.F) {
	type op struct {
		name string
		seq  byte // 0 deletes name
	}
	ops := []op{{"a", 1}, {"b", 2}, {"c", 3}, {"b", 0}, {"d", 4}, {"a", 0}, {"b", 5}}
	// states[k] and bounds[k] are the live snapshots and the file length
	// after the first k mutations.
	var states []string
	var bounds []int
	fsys := vfs.NewMem()
	c, err := CreateCatalogFS(fsys, CatalogName)
	if err != nil {
		f.Fatal(err)
	}
	for k := 0; ; k++ {
		states = append(states, catalogState(c.List()))
		bounds = append(bounds, len(memBytes(f, fsys, CatalogName)))
		if k == len(ops) {
			break
		}
		if o := ops[k]; o.seq == 0 {
			err = c.Delete(o.name)
		} else {
			err = c.Add(testRecord(o.name, o.seq))
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	c.Close()
	enc := memBytes(f, fsys, CatalogName)
	n := uint32(len(enc))

	f.Add(uint32(0), byte(0), uint32(0), []byte(nil))
	// Byte 14 of the second record's header is in its payload length:
	// raised past the end of the file, it looks like a torn tail.
	f.Add(uint32(bounds[1]+14), byte(0x01), uint32(0), []byte(nil))
	f.Add(uint32(bounds[3]+9), byte(0x80), uint32(0), []byte(nil))
	f.Add(uint32(bounds[2]+20), byte(0x40), uint32(0), []byte(nil))
	f.Add(uint32(0), byte(0), n-3, []byte(nil))
	f.Add(uint32(0), byte(0), uint32(bounds[4]), []byte(nil))
	f.Add(n-1, byte(1), uint32(0), []byte("tail"))
	f.Add(uint32(2), byte(0x10), uint32(0), []byte(nil))
	f.Add(uint32(12), byte(0x30), uint32(0), []byte(nil)) // a reserved header byte

	f.Fuzz(func(t *testing.T, off uint32, xor byte, cut uint32, tail []byte) {
		data := append([]byte(nil), enc...)
		data[off%n] ^= xor
		if cut > 0 && cut < n {
			data = data[:cut]
		}
		data = append(data, tail...)
		m := vfs.NewMem()
		w, err := m.OpenFile(CatalogName, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		c, err := OpenCatalogFS(m, CatalogName)
		if err != nil {
			if !errors.Is(err, ErrCatalogCorrupt) {
				t.Fatalf("open failed with unexpected error class: %v", err)
			}
			if !bytes.Equal(memBytes(t, m, CatalogName), data) {
				t.Fatal("a refused open changed the file")
			}
			return
		}
		defer c.Close()
		got := catalogState(c.List())
		for k := len(states) - 1; k >= 0; k-- {
			if states[k] == got && len(data) >= bounds[k] && bytes.Equal(data[:bounds[k]], enc[:bounds[k]]) {
				if size := len(memBytes(t, m, CatalogName)); size != bounds[k] {
					t.Fatalf("replayed %d mutations but left %d bytes, want %d", k, size, bounds[k])
				}
				return
			}
		}
		t.Fatalf("damaged catalog replayed %q, not the state after an intact prefix of the mutations", got)
	})
}

// catalogState renders a snapshot listing for comparison.
func catalogState(recs []SnapshotRecord) string {
	var b bytes.Buffer
	for _, r := range recs {
		fmt.Fprintf(&b, "%s/%d/%d/%d/%x;", r.Name, r.CreatedUnix, r.LogicalBytes, r.Chunks, sha256.Sum256(r.SealedRecipe))
	}
	return b.String()
}
