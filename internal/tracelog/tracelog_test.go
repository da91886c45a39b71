package tracelog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
)

func testRefs(seed, n int) []trace.ChunkRef {
	refs := make([]trace.ChunkRef, n)
	for i := range refs {
		refs[i] = trace.ChunkRef{
			FP:   fphash.FromUint64(uint64(seed)<<32 | uint64(i+1)),
			Size: uint32(1024 + (seed*31+i)%4096),
		}
	}
	return refs
}

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), LogName)
}

// writeTraces commits the given backups (one session each, windows of w
// refs) into a fresh log at path and returns the committed streams.
func writeTraces(t *testing.T, path string, w int, sizes ...int) [][]trace.ChunkRef {
	t.Helper()
	l, err := CreateFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]trace.ChunkRef
	for i, n := range sizes {
		refs := testRefs(i+1, n)
		s, err := l.Begin(fmt.Sprintf("backup-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(refs); lo += w {
			hi := lo + w
			if hi > len(refs) {
				hi = len(refs)
			}
			if err := s.ObserveUpload(refs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		out = append(out, refs)
	}
	return out
}

func materializeAll(t *testing.T, l *Log) [][]trace.ChunkRef {
	t.Helper()
	var out [][]trace.ChunkRef
	for _, bt := range l.Backups() {
		b, err := bt.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Chunks)
	}
	return out
}

func refsEqual(a, b []trace.ChunkRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	path := logPath(t)
	want := writeTraces(t, path, 100, 250, 1, 777)
	l, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := materializeAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d traces, want %d", len(got), len(want))
	}
	for i := range want {
		if !refsEqual(got[i], want[i]) {
			t.Fatalf("trace %d replayed differently", i)
		}
	}
	if bs := l.Backups(); bs[0].Label != "backup-0" || bs[2].Chunks != 777 {
		t.Fatalf("metadata wrong: %+v", bs)
	}
}

// TestTornTailEveryBoundary truncates the log at every byte position and
// reopens: at a record boundary the acknowledged prefix must replay
// exactly; inside a record the torn tail must be discarded down to the
// last acknowledged commit. No truncation position may corrupt the log.
func TestTornTailEveryBoundary(t *testing.T) {
	path := logPath(t)
	want := writeTraces(t, path, 7, 20, 15)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(logHeaderLen); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFS(vfs.OS, path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		got := materializeAll(t, l)
		l.Close()
		// Every replayed trace must be a fully acknowledged one.
		if len(got) > len(want) {
			t.Fatalf("cut=%d: %d traces from a log that only committed %d", cut, len(got), len(want))
		}
		for i := range got {
			if !refsEqual(got[i], want[i]) {
				t.Fatalf("cut=%d: trace %d differs", cut, i)
			}
		}
		if cut == int64(len(full)) && len(got) != len(want) {
			t.Fatalf("uncut log replayed %d traces, want %d", len(got), len(want))
		}
	}
}

// TestBadCRCTailTruncated flips a byte in the final record: the reopened
// log must treat it as a torn tail and drop the affected trace, while a
// flip in an earlier record is structural corruption.
func TestBadCRCTailTruncated(t *testing.T) {
	path := logPath(t)
	writeTraces(t, path, 64, 100, 100)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the last byte (inside the final end record's CRC).
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatalf("bad-CRC tail must be recovered, got %v", err)
	}
	if got := len(l.Backups()); got != 1 {
		t.Fatalf("replayed %d traces after tail corruption, want 1", got)
	}
	l.Close()

	// The log must have been truncated back past the bad record, so a
	// fresh session appends at a clean boundary.
	l, err = OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Begin("after-crash")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveUpload(testRefs(9, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err = OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Backups()); got != 2 {
		t.Fatalf("replayed %d traces after post-recovery append, want 2", got)
	}
	l.Close()

	// Mid-file corruption is damage, not a torn tail.
	mut = append([]byte(nil), full...)
	mut[logHeaderLen+recHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(vfs.OS, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestDamagedLengthNotTruncated raises the length field of a mid-file
// record past the end of the file, which looks like a torn tail at that
// record. Later records are intact, so the owner's open must fail with
// ErrCorrupt and leave the file as it is, not truncate away the
// acknowledged traces after the damage.
func TestDamagedLengthNotTruncated(t *testing.T) {
	path := logPath(t)
	writeTraces(t, path, 64, 100, 100, 100)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The second backup's first chunks record.
	at, begins := int64(logHeaderLen), 0
	for {
		kind := binary.LittleEndian.Uint32(full[at+4:])
		if kind == kindBegin {
			begins++
		} else if kind == kindChunks && begins == 2 {
			break
		}
		at += recHeaderLen + int64(binary.LittleEndian.Uint32(full[at+12:])) + recTrailerLen
	}
	mut := append([]byte(nil), full...)
	mut[at+14] ^= 0x01 // payload length + 64 KiB: past the end of the file
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(vfs.OS, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenFS of a log with a damaged length = %v, want ErrCorrupt", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, mut) {
		t.Fatalf("the failed open changed the file: %d bytes, want %d (%v)", len(got), len(mut), err)
	}
	// The same damage in the last record is a torn tail: the open
	// recovers the backups before it.
	mut = append([]byte(nil), full...)
	last := int64(len(full)) - recHeaderLen - 8 - recTrailerLen
	mut[last+14] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatalf("a torn final record must be recovered, got %v", err)
	}
	if got := len(l.Backups()); got != 2 {
		t.Fatalf("replayed %d traces, want 2", got)
	}
	l.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != last {
		t.Fatalf("torn tail truncated to %v, want %d (%v)", fi.Size(), last, err)
	}
}

// TestUncommittedSessionDropped ensures a crash mid-backup (no end
// record) leaves no committed trace, while the other, committed session
// survives — including with interleaved concurrent sessions.
func TestUncommittedSessionDropped(t *testing.T) {
	path := logPath(t)
	l, err := CreateFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	committed, errC := l.Begin("committed")
	if errC != nil {
		t.Fatal(errC)
	}
	crashed, errA := l.Begin("crashed")
	if errA != nil {
		t.Fatal(errA)
	}
	// Interleave the two sessions' windows.
	for i := 0; i < 4; i++ {
		if err := committed.ObserveUpload(testRefs(1, 10)); err != nil {
			t.Fatal(err)
		}
		if err := crashed.ObserveUpload(testRefs(2, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	// "Crash": never commit the second session, drop the handle, reopen.
	l.Close()
	l, err = OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bs := l.Backups()
	if len(bs) != 1 || bs[0].Label != "committed" || bs[0].Chunks != 40 {
		t.Fatalf("replay = %+v, want only the committed session", bs)
	}
	b, err := bs[0].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Chunks) != 40 {
		t.Fatalf("committed trace has %d chunks, want 40", len(b.Chunks))
	}
}

// TestReplayEquivalentToInput is the crash-replay acceptance check:
// after feeding windows to a file log, reopening it cold (as after a
// crash plus restart) must replay exactly the windows fed in, in order.
func TestReplayEquivalentToInput(t *testing.T) {
	path := logPath(t)
	file, err := CreateFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]trace.ChunkRef
	for i, n := range []int{300, 42, 1000} {
		fs, err := file.Begin(fmt.Sprintf("b%d", i))
		if err != nil {
			t.Fatal(err)
		}
		refs := testRefs(i+7, n)
		for lo := 0; lo < len(refs); lo += 128 {
			if err := fs.ObserveUpload(refs[lo:min(lo+128, len(refs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, refs)
	}
	// Crash-restart the file log: no Close, fresh Open of the same path.
	reopened, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	defer file.Close()

	got := materializeAll(t, reopened)
	if len(got) != len(want) {
		t.Fatalf("file log replayed %d traces, fed %d", len(got), len(want))
	}
	for i := range want {
		if !refsEqual(got[i], want[i]) {
			t.Fatalf("trace %d: file replay differs from the windows fed in", i)
		}
	}
}

// TestConcurrentSessionsAndReaders runs several committing sessions and
// replay readers at once (under -race) and checks every committed trace
// replays intact.
func TestConcurrentSessionsAndReaders(t *testing.T) {
	path := logPath(t)
	l, err := CreateFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			refs := testRefs(w+1, 500)
			s, err := l.Begin(fmt.Sprintf("w%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			for lo := 0; lo < len(refs); lo += 64 {
				hi := lo + 64
				if hi > len(refs) {
					hi = len(refs)
				}
				if err := s.ObserveUpload(refs[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Commit(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Concurrent readers over whatever is committed so far.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, bt := range l.Backups() {
					if _, err := bt.Materialize(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	bs := l.Backups()
	if len(bs) != writers {
		t.Fatalf("%d committed traces, want %d", len(bs), writers)
	}
	for _, bt := range bs {
		b, err := bt.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		var w int
		if _, err := fmt.Sscanf(bt.Label, "w%d", &w); err != nil {
			t.Fatal(err)
		}
		if !refsEqual(b.Chunks, testRefs(w+1, 500)) {
			t.Fatalf("trace %s replayed differently", bt.Label)
		}
	}
}

// TestStreamingReaderAgainstMaterialize checks the streaming reader path
// (small destination buffers crossing record boundaries) agrees with
// Materialize.
func TestStreamingReaderAgainstMaterialize(t *testing.T) {
	path := logPath(t)
	want := writeTraces(t, path, 33, 500)
	l, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, err := l.Backups()[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []trace.ChunkRef
	buf := make([]trace.ChunkRef, 5)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !refsEqual(got, want[0]) {
		t.Fatal("streaming read differs from the written trace")
	}
}

// TestOpenReadOnly pins the inspection contract: a read-only open
// replays the committed prefix without modifying the file (an
// incomplete tail may be another process's in-flight append), and
// refuses to start sessions.
func TestOpenReadOnly(t *testing.T) {
	path := logPath(t)
	want := writeTraces(t, path, 50, 120, 80)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a live writer's in-flight append: a torn record at the
	// tail.
	torn := append(append([]byte(nil), full...), 0xFD, 0x54, 0x31)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := OpenReadOnlyFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	got := materializeAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d traces, want %d", len(got), len(want))
	}
	for i := range want {
		if !refsEqual(got[i], want[i]) {
			t.Fatalf("trace %d differs", i)
		}
	}
	if _, err := l.Begin("nope"); err == nil {
		t.Fatal("Begin on a read-only log must fail")
	}
	l.Close()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqual(after, torn) {
		t.Fatal("read-only open modified the log file")
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTraceLogBytesPinned builds a trace log from fixed inputs — two
// interleaved sessions that both spill past sessionSpillBytes, and an
// aborted one — and holds the file to a SHA-256 sum recorded from the
// format's first writer: a change here is an on-disk format change.
func TestTraceLogBytesPinned(t *testing.T) {
	m := vfs.NewMem()
	l, err := CreateFS(m, LogName)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	begin := func(label string) *Session {
		s, err := l.Begin(label)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := begin("gen-a"), begin("gen-b")
	refsA, refsB := testRefs(1, 400_000), testRefs(2, 370_000)
	const w = 4096
	for lo := 0; lo < len(refsA); lo += w {
		if err := a.ObserveUpload(refsA[lo:min(lo+w, len(refsA))]); err != nil {
			t.Fatal(err)
		}
		if lo < len(refsB) {
			if err := b.ObserveUpload(refsB[lo:min(lo+w, len(refsB))]); err != nil {
				t.Fatal(err)
			}
		}
		if lo == 20*w {
			dead := begin("aborted")
			if err := dead.ObserveUpload(testRefs(3, 100)); err != nil {
				t.Fatal(err)
			}
			dead.Abort()
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	data := memFile(t, m, LogName)
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "609cea61f25ba5d3ff11eb5a13869feff503bb9d834467222ffe79f40fb3e066"; got != want {
		t.Errorf("trace log (%d B) sha256 %s, pinned %s", len(data), got, want)
	}
}

// TestOpenReadOnlyDamagedLength raises the length field of the log's
// second record past the end of the file. Whole records follow it, so
// the damage is not an append in flight: a read-only replay must fail
// with ErrCorrupt, not return the traces before it as the whole log, and
// must leave the file as it is.
func TestOpenReadOnlyDamagedLength(t *testing.T) {
	path := logPath(t)
	writeTraces(t, path, 64, 100, 100, 100)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := logHeaderLen + recHeaderLen + int(binary.LittleEndian.Uint32(full[logHeaderLen+12:])) + recTrailerLen
	mut := append([]byte(nil), full...)
	mut[second+14] ^= 0x01 // payload length + 64 KiB: past the end of the file
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenReadOnlyFS(vfs.OS, path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			t.Errorf("replayed %d traces", len(l.Backups()))
			l.Close()
		}
		t.Fatalf("OpenReadOnlyFS of a log with a damaged length = %v, want ErrCorrupt", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, mut) {
		t.Fatalf("the read-only open changed the file: %d bytes, want %d (%v)", len(got), len(mut), err)
	}
}
