package container

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/faultio"
	"freqdedup/internal/fphash"
	"freqdedup/internal/vfs"
)

func newFileStore(t *testing.T, capacity, shards int) (*FileBackend, string) {
	t.Helper()
	dir := t.TempDir()
	b, err := CreateFileBackend(dir, shards, capacity)
	if err != nil {
		t.Fatalf("CreateFileBackend: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return b, dir
}

func TestFileBackendSealLoadRoundTrip(t *testing.T) {
	b, _ := newFileStore(t, 100, 2)
	s, err := NewWithBackend(100, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var locs []Location
	for i := uint64(0); i < 9; i++ {
		locs = append(locs, mustAppend(t, s, dataEntry(i, 40)))
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, loc := range locs {
		e, err := s.Get(loc)
		if err != nil {
			t.Fatalf("Get(%+v): %v", loc, err)
		}
		want := dataEntry(uint64(i), 40)
		if e.FP != want.FP || !bytes.Equal(e.Data, want.Data) {
			t.Fatalf("entry %d corrupted on round trip", i)
		}
	}
	// The other shard is untouched.
	if _, err := b.Load(0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load on empty shard: %v, want ErrNotFound", err)
	}
}

func TestFileBackendReopen(t *testing.T) {
	b, dir := newFileStore(t, 100, 4)
	s, err := NewWithBackend(100, b, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 9; i++ {
		mustAppend(t, s, dataEntry(i, 40))
	}
	sealed := s.sealed
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	rb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("OpenFileBackend: %v", err)
	}
	defer rb.Close()
	if rb.Shards() != 4 || rb.ContainerBytes() != 100 {
		t.Fatalf("reopened backend: %d shards, capacity %d", rb.Shards(), rb.ContainerBytes())
	}
	rs, err := NewWithBackend(rb.ContainerBytes(), rb, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.sealed != sealed+1 || rs.Count() != sealed+1 {
		t.Fatalf("reopened store sees %d containers, want %d", rs.Count(), sealed+1)
	}
	// Metadata-only scan: fingerprints and sizes, no data.
	n := 0
	err = rb.Scan(2, false, func(c *Container) error {
		for _, e := range c.Entries {
			if e.Size != 40 || e.Data != nil {
				t.Fatalf("meta scan entry = %+v", e)
			}
			n++
		}
		return nil
	})
	if err != nil || n != 9 {
		t.Fatalf("meta scan: %d entries, err %v", n, err)
	}
	// New appends continue the ID sequence.
	loc, err := rs.Append(dataEntry(100, 40))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Container != sealed+1 {
		t.Fatalf("post-reopen append went to container %d, want %d", loc.Container, sealed+1)
	}
}

func TestFileBackendTornTailRecovered(t *testing.T) {
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s, dataEntry(i, 40))
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Simulate a crash mid-append: chop the last record in half.
	name := filepath.Join(dir, shardFileName(0))
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(name, st.Size()-30); err != nil {
		t.Fatal(err)
	}

	rb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer rb.Close()
	rs, err := NewWithBackend(100, rb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 6 entries of 40 into capacity 100 = 3 containers of 2; the torn one
	// is gone, its predecessors intact.
	if rs.Count() != 2 {
		t.Fatalf("recovered store has %d containers, want 2", rs.Count())
	}
	for id := 0; id < 2; id++ {
		c, err := rb.Load(0, id)
		if err != nil || len(c.Entries) != 2 {
			t.Fatalf("recovered container %d: %+v, %v", id, c, err)
		}
	}
	// Appends after recovery reuse the freed ID.
	rs2 := rs
	loc, err := rs2.Append(dataEntry(50, 40))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Container != 2 {
		t.Fatalf("post-recovery append container = %d, want 2", loc.Container)
	}
}

// TestFileBackendSalvageTornTailRefusesSeal: a salvage open leaves a torn
// tail on disk, so the shard refuses Seal until Repair rewrites it; a
// seal after the repair then survives an owner reopen. Were the seal
// allowed, a record shorter than the garbage would leave the garbage's
// rest after it, and the owner open would fail mid-file.
func TestFileBackendSalvageTornTailRefusesSeal(t *testing.T) {
	chunk := func(id uint64) Entry {
		e := dataEntry(id, 40)
		e.FP = fphash.FromBytes(e.Data)
		return e
	}
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s, chunk(i)) // 3 containers of 2
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// 200 bytes of garbage: no record parses there, and one 40-byte
	// entry's record (72 bytes) is shorter.
	name := filepath.Join(dir, shardFileName(0))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xab}, 200)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sb, st, err := OpenFileBackendSalvage(vfs.OS, dir)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	defer sb.Close()
	if st.ContainersLost != 0 || st.BytesSkipped != 200 || !sb.Salvaged() {
		t.Fatalf("salvage open: %+v, Salvaged %v; want 200 bytes skipped and the shard salvaged", st, sb.Salvaged())
	}
	ss, err := NewWithBackend(100, sb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, ss, chunk(6))
	if _, err := ss.Flush(); !errors.Is(err, ErrSalvaged) {
		t.Fatalf("Flush before repair: %v, want ErrSalvaged", err)
	}
	rst, err := ss.Repair(nil)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rst.ContainersQuarantined != 0 || rst.EntriesLost != 0 || ss.Sealed() != 3 || sb.Salvaged() {
		t.Fatalf("repair: %+v, %d sealed, Salvaged %v; want 3 containers kept and the shard clean",
			rst, ss.Sealed(), sb.Salvaged())
	}
	if _, err := ss.Flush(); err != nil {
		t.Fatalf("Flush after repair: %v", err)
	}
	sb.Close()

	rb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("owner reopen: %v", err)
	}
	defer rb.Close()
	for id := 0; id < 4; id++ {
		c, err := rb.Load(0, id)
		if err != nil {
			t.Fatalf("Load(%d): %v", id, err)
		}
		for i, e := range c.Entries {
			want := chunk(uint64(2*id + i))
			if e.FP != want.FP || !bytes.Equal(e.Data, want.Data) {
				t.Fatalf("container %d entry %d differs from what was sealed", id, i)
			}
		}
	}
	if _, err := rb.Load(0, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load(4): %v, want ErrNotFound", err)
	}
}

func TestFileBackendCorruptDataDetected(t *testing.T) {
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, dataEntry(1, 40))
	mustAppend(t, s, dataEntry(2, 40))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Flip one data byte inside the (only) record.
	name := filepath.Join(dir, shardFileName(0))
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("open scans only structure, should succeed: %v", err)
	}
	defer rb.Close()
	if _, err := rb.Load(0, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of corrupted container: %v, want ErrCorrupt", err)
	}
}

func TestFileBackendStructuralCorruptionFailsOpen(t *testing.T) {
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s, dataEntry(i, 40))
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	name := filepath.Join(dir, shardFileName(0))

	// A file shorter than its header is not a torn tail.
	if err := os.Truncate(name, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBackend(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of truncated header: %v, want ErrCorrupt", err)
	}

	// Garbage at a record boundary mid-file is corruption, not recovery.
	b2, dir2 := newFileStore(t, 100, 1)
	s2, err := NewWithBackend(100, b2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s2, dataEntry(i, 40))
	}
	if _, err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	b2.Close()
	name2 := filepath.Join(dir2, shardFileName(0))
	raw, err := os.ReadFile(name2)
	if err != nil {
		t.Fatal(err)
	}
	raw[fileHeaderLen] ^= 0xff // first record's magic
	if err := os.WriteFile(name2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBackend(dir2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with bad record magic: %v, want ErrCorrupt", err)
	}
}

func TestFileBackendRewrite(t *testing.T) {
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		mustAppend(t, s, dataEntry(i, 40))
	}
	st, err := s.Compact(func(e Entry) bool { return e.FP.Uint64()%2 == 1 }, nil)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.EntriesDropped != 5 {
		t.Fatalf("dropped %d, want 5", st.EntriesDropped)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// The rewritten file must reopen cleanly with only the survivors.
	rb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("open after rewrite: %v", err)
	}
	defer rb.Close()
	var got []uint64
	err = rb.Scan(0, true, func(c *Container) error {
		for _, e := range c.Entries {
			got = append(got, e.FP.Uint64())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, shardFileName(0)+".rewrite")); !os.IsNotExist(err) {
		t.Fatal("rewrite temp file left behind")
	}
}

func TestCreateFileBackendRefusesExisting(t *testing.T) {
	_, dir := newFileStore(t, 100, 1)
	if _, err := CreateFileBackend(dir, 1, 100); err == nil {
		t.Fatal("CreateFileBackend over an existing store succeeded")
	}
}

func TestOpenFileBackendEmptyDir(t *testing.T) {
	if _, err := OpenFileBackend(t.TempDir()); err == nil {
		t.Fatal("OpenFileBackend of empty dir succeeded")
	}
}

func TestFileBackendRejectsMetadataOnlyEntries(t *testing.T) {
	b, _ := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Entry{FP: dataEntry(1, 40).FP, Size: 40}); err != nil {
		t.Fatal(err) // append itself is fine, the entry sits in memory
	}
	if _, err := s.Flush(); err == nil {
		t.Fatal("sealing a metadata-only entry through a FileBackend succeeded")
	}
}

// TestRepairKeepsEarlierQuarantine runs two repairs that each drop a
// damaged container numbered 1 — Repair renumbers survivors from zero, so
// the second repair's victim is a different record under the same ID. The
// second quarantine must not overwrite the first: both raw records stay
// preserved, byte for byte.
func TestRepairKeepsEarlierQuarantine(t *testing.T) {
	// Repair keeps only entries whose content hashes to their fingerprint.
	chunk := func(id uint64) Entry {
		e := dataEntry(id, 40)
		e.FP = fphash.FromBytes(e.Data)
		return e
	}
	b, dir := newFileStore(t, 100, 1)
	s, err := NewWithBackend(100, b, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		mustAppend(t, s, chunk(i)) // 3 containers of 2
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	name := filepath.Join(dir, shardFileName(0))
	var want [][]byte
	var paths []string
	for round := 0; round < 2; round++ {
		// Flip a data byte of container 1 and remember its damaged record.
		rb, err := OpenFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		start, end := rb.shards[0].offsets[1], rb.shards[0].offsets[2]
		rb.Close()
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		raw[end-10] ^= 0xff
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte(nil), raw[start:end]...))

		rb, err = OpenFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewWithBackend(100, rb, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rs.Repair(nil)
		if err != nil {
			t.Fatalf("repair %d: %v", round, err)
		}
		if st.ContainersQuarantined != 1 || len(st.QuarantinePaths) != 1 {
			t.Fatalf("repair %d: %+v, want one quarantined container", round, st)
		}
		paths = append(paths, st.QuarantinePaths[0])
		if rs.Count() != 2 {
			t.Fatalf("repair %d left %d containers, want 2", round, rs.Count())
		}
		if round == 0 {
			// Top the shard back up to three containers for round two.
			mustAppend(t, rs, chunk(10))
			mustAppend(t, rs, chunk(11))
			if _, err := rs.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rb.Close()
	}

	files, err := filepath.Glob(filepath.Join(dir, QuarantineDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("quarantine holds %v, want both repairs' records", files)
	}
	for i, f := range paths {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s does not hold repair %d's damaged record", f, i)
		}
	}
}

// unorderedFS hides its filesystem's sync-order declaration, so
// vfs.StartSync runs its fsyncs on goroutines, as on the real disk.
type unorderedFS struct{ vfs.FS }

// TestFlushAllSealPass: FlushAll seals every shard's open container in
// one pass. With ordered syncs (faultio.MemFS) a failed fsync stops the
// pass where it fails: the earlier shards are sealed, the failing one
// keeps its container open with its torn tail discarded, and the later
// ones are not written. With overlapped fsyncs every shard but the
// failing one is sealed. Either way a retry seals the rest, and a
// reopen reads every container back.
func TestFlushAllSealPass(t *testing.T) {
	const shards, failing = 4, 2
	for _, ordered := range []bool{true, false} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			// A shard file's first sync is its header's, at creation.
			m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{
				Op: faultio.OpSync, PathGlob: shardFileName(failing), Nth: 2,
			}}})
			var fsys vfs.FS = m
			if !ordered {
				fsys = unorderedFS{m}
			}
			b, err := CreateFileBackendFS(fsys, "store", shards, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			stores := make([]*Store, shards)
			for i := range stores {
				if stores[i], err = NewWithBackend(1<<10, b, i, nil); err != nil {
					t.Fatal(err)
				}
				mustAppend(t, stores[i], dataEntry(uint64(i), 100))
			}
			shard, err := FlushAll(stores)
			if shard != failing || !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("FlushAll = shard %d, %v; want shard %d's injected sync failure", shard, err, failing)
			}
			for i, s := range stores {
				want := i < failing || !ordered && i > failing
				if got := s.Sealed() == 1; got != want || (s.Current() != nil) == want {
					t.Errorf("shard %d: sealed %v, want %v", i, got, want)
				}
			}
			if shard, err := FlushAll(stores); shard != -1 || err != nil {
				t.Fatalf("retried FlushAll = shard %d, %v", shard, err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenFileBackendFS(m, "store")
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			for i := 0; i < shards; i++ {
				c, err := reopened.Load(i, 0)
				if err != nil || len(c.Entries) != 1 || !bytes.Equal(c.Entries[0].Data, dataEntry(uint64(i), 100).Data) {
					t.Fatalf("shard %d after reopen: %v", i, err)
				}
				if _, err := reopened.Load(i, 1); !errors.Is(err, ErrNotFound) {
					t.Fatalf("shard %d holds a second container: %v", i, err)
				}
			}
		})
	}
}
