package faultio

import (
	"errors"
	"os"
	"testing"

	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
)

func writeFile(t *testing.T, m *MemFS, name string, data []byte, sync bool) {
	t.Helper()
	f, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("Write(%s): %v", name, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatalf("Sync(%s): %v", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close(%s): %v", name, err)
	}
}

func readFile(t *testing.T, m *MemFS, name string) []byte {
	t.Helper()
	f, err := m.Open(name)
	if err != nil {
		t.Fatalf("Open(%s): %v", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatalf("Stat(%s): %v", name, err)
	}
	buf := make([]byte, st.Size())
	if st.Size() > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("ReadAt(%s): %v", name, err)
		}
	}
	return buf
}

// Only fsynced content survives a crash; never-synced files vanish.
func TestCrashImageDurability(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/synced", []byte("durable"), true)
	writeFile(t, m, "dir/unsynced", []byte("volatile"), false)

	// Append past the sync without syncing again: the tail is volatile.
	f, err := m.OpenFile("dir/synced", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(" tail"), 7); err != nil {
		t.Fatal(err)
	}
	f.Close()

	img := m.CrashImage()
	if got := string(readFile(t, img, "dir/synced")); got != "durable" {
		t.Fatalf("crash image content = %q, want %q", got, "durable")
	}
	if _, err := img.Open("dir/unsynced"); err == nil {
		t.Fatal("never-synced file survived the crash")
	}
	// The live fs still sees everything.
	if got := string(readFile(t, m, "dir/synced")); got != "durable tail" {
		t.Fatalf("live content = %q", got)
	}
}

// A write-error rule fires on the Nth match and wraps ErrInjected.
func TestRuleInjection(t *testing.T) {
	m := NewMemFSPlan(Plan{Seed: 1, Rules: []Rule{
		{Op: OpWrite, PathGlob: "victim", Nth: 2, Fault: Fault{}},
	}})
	writeFile(t, m, "bystander", []byte("x"), true)
	f, err := m.OpenFile("victim", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	_, err = f.Write([]byte("second"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second write error = %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("third")); err != nil {
		t.Fatalf("rule should fire once: %v", err)
	}
}

// Crash-at-op fails the Nth mutating op and everything after it; reads
// never tick the clock.
func TestCrashAtOp(t *testing.T) {
	m := NewMemFSPlan(Plan{CrashAtOp: 3})
	writeFile(t, m, "a", []byte("1"), false) // ops 1 (create) + 2 (write)
	if _, err := m.Stat("a"); err != nil {
		t.Fatalf("read op should not crash: %v", err)
	}
	f, _ := m.OpenFile("a", os.O_RDWR, 0)
	_, err := f.Write([]byte("2")) // op 3: crash
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3 error = %v, want ErrCrashed", err)
	}
	if _, err := m.OpenFile("b", os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op error = %v, want ErrCrashed", err)
	}
}

// The same plan injects identical faults: torn-write prefixes included.
func TestDeterminism(t *testing.T) {
	run := func() []byte {
		m := NewMemFSPlan(Plan{Seed: 42, Rules: []Rule{
			{Op: OpWrite, Nth: 2, Fault: Fault{ShortWrite: true}},
		}})
		f, err := m.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("head-")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("torn-write-body")); !errors.Is(err, ErrInjected) {
			t.Fatalf("want injected error, got %v", err)
		}
		f.Sync()
		f.Close()
		return readFile(t, m, "f")
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed, different torn writes: %q vs %q", a, b)
	}
	if string(a) == "head-torn-write-body" {
		t.Fatal("short write wrote the full buffer")
	}
}

func testContainer(id int, seed byte) *container.Container {
	data := make([]byte, 64)
	for i := range data {
		data[i] = seed + byte(i)
	}
	fp := fphash.FromBytes(data)
	return &container.Container{
		ID:      id,
		Entries: []container.Entry{{FP: fp, Size: uint32(len(data)), Data: data}},
		Bytes:   len(data),
	}
}

// The real FileBackend running on MemFS: sealed containers survive a
// crash image, the unsealed tail does not exist, and a post-fsync bit
// flip surfaces as ErrCorrupt on Load — never as wrong bytes.
func TestFileBackendOnMemFS(t *testing.T) {
	m := NewMemFS()
	fb, err := container.CreateFileBackendFS(m, "store", 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := fb.Seal(0, testContainer(id, byte(id))); err != nil {
			t.Fatalf("seal %d: %v", id, err)
		}
	}
	fb.Close()

	img := m.CrashImage()
	fb2, err := container.OpenFileBackendFS(img, "store")
	if err != nil {
		t.Fatalf("reopen from crash image: %v", err)
	}
	defer fb2.Close()
	for id := 0; id < 3; id++ {
		c, err := fb2.Load(0, id, nil)
		if err != nil {
			t.Fatalf("load %d: %v", id, err)
		}
		want := testContainer(id, byte(id))
		if string(c.Entries[0].Data) != string(want.Entries[0].Data) {
			t.Fatalf("container %d bytes differ after crash", id)
		}
	}

	// Post-fsync corruption: flip a bit inside the shard file's data
	// region and expect a loud ErrCorrupt.
	if err := img.CorruptAt("store/shard-0000.fdc", 60, 0x10); err != nil {
		t.Fatal(err)
	}
	if _, err := fb2.Load(0, 0, nil); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("load of corrupted container = %v, want ErrCorrupt", err)
	}
}

// Sync points are recorded at acknowledged syncs only.
func TestSyncPoints(t *testing.T) {
	m := NewMemFSPlan(Plan{Seed: 3, Rules: []Rule{
		{Op: OpSync, PathGlob: "b", Fault: Fault{}},
	}})
	writeFile(t, m, "a", []byte("x"), true) // create + write + sync
	f, _ := m.OpenFile("b", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("y"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync of b = %v, want injected failure", err)
	}
	pts := m.Injector().SyncPoints()
	if len(pts) != 1 {
		t.Fatalf("sync points = %v, want exactly the acknowledged sync", pts)
	}
}

// A failed sync leaves the durable view at its previous state.
func TestFailedSyncNotDurable(t *testing.T) {
	m := NewMemFSPlan(Plan{Seed: 5, Rules: []Rule{
		{Op: OpSync, Nth: 2, Fault: Fault{}},
	}})
	f, err := m.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("v1"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("v2"), 0)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync = %v, want injected failure", err)
	}
	if got := string(readFile(t, m.CrashImage(), "f")); got != "v1" {
		t.Fatalf("durable content after failed sync = %q, want %q", got, "v1")
	}
}
