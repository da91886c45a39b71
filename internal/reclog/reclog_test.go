package reclog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"freqdedup/internal/faultio"
	"freqdedup/internal/vfs"
)

var errTestCorrupt = errors.New("test log corrupt")

// testFormat's body is b bytes; a is free for the caller.
var testFormat = &Format{
	Name:     "testlog",
	Magic:    0x54455354,
	Version:  1,
	RecMagic: 0x54535231,
	BodyLen:  func(_, b uint32) (int64, bool) { return int64(b), b <= 1<<20 },
	Corrupt:  errTestCorrupt,
}

func readFile(t *testing.T, fsys vfs.FS, path string) []byte {
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

func writeFile(t *testing.T, fsys vfs.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// threeRecords writes records "one", "two" and "three" (kinds 1–3, a =
// 10×kind) and returns the file and each record's end offset.
func threeRecords(t *testing.T) ([]byte, []int) {
	t.Helper()
	m := vfs.NewMem()
	l, err := Create(m, "log", testFormat)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for i, body := range []string{"one", "two", "three"} {
		_, seq, err := l.Append(true, uint32(i+1), uint32(10*(i+1)), uint32(len(body)), []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(l.size))
	}
	l.Close()
	return readFile(t, m, "log"), ends
}

// replayed opens data in mode and returns what the replay visited, as
// "kind/a/body" strings, with the stats, the error and the file after.
func replayed(t *testing.T, data []byte, mode Mode) (string, Stats, error, []byte) {
	t.Helper()
	m := vfs.NewMem()
	writeFile(t, m, "log", data)
	var got []string
	l, st, err := Open(m, "log", testFormat, mode, func(r Record) error {
		got = append(got, fmt.Sprintf("%d/%d/%s", r.Kind, r.A, r.Body))
		return nil
	})
	if err == nil {
		l.Close()
	}
	return fmt.Sprint(got), st, err, readFile(t, m, "log")
}

func TestReplayModes(t *testing.T) {
	clean, ends := threeRecords(t)
	all := "[1/10/one 2/20/two 3/30/three]"
	torn := clean[:ends[2]-3]
	// Raise the second record's body length past the end of the file.
	damaged := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(damaged[ends[0]+12:], 1000)
	// Flip a body byte of the second record: its checksum fails mid-file.
	flipped := append([]byte(nil), clean...)
	flipped[ends[0]+RecHeaderLen] ^= 1

	cases := []struct {
		name    string
		data    []byte
		mode    Mode
		want    string
		st      Stats
		corrupt bool
		after   []byte // the file after the open
	}{
		{"clean owner", clean, Owner, all, Stats{}, false, clean},
		{"torn owner", torn, Owner, "[1/10/one 2/20/two]", Stats{BytesSkipped: int64(len(torn) - ends[1])}, false, clean[:ends[1]]},
		{"torn read-only", torn, ReadOnly, "[1/10/one 2/20/two]", Stats{BytesSkipped: int64(len(torn) - ends[1])}, false, torn},
		{"torn salvage", torn, Salvage, "[1/10/one 2/20/two]", Stats{BytesSkipped: int64(len(torn) - ends[1])}, false, torn},
		{"damaged length owner", damaged, Owner, "", Stats{}, true, damaged},
		{"damaged length read-only", damaged, ReadOnly, "", Stats{}, true, damaged},
		{"damaged length salvage", damaged, Salvage, "[1/10/one 3/30/three]", Stats{RecordsDropped: 1, BytesSkipped: int64(ends[1] - ends[0])}, false, damaged},
		{"flipped owner", flipped, Owner, "", Stats{}, true, flipped},
		{"flipped read-only", flipped, ReadOnly, "", Stats{}, true, flipped},
		{"flipped salvage", flipped, Salvage, "[1/10/one 3/30/three]", Stats{RecordsDropped: 1, BytesSkipped: int64(ends[1] - ends[0])}, false, flipped},
		{"trailing garbage owner", append(append([]byte(nil), clean...), "xyz"...), Owner, all, Stats{BytesSkipped: 3}, false, clean},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, st, err, after := replayed(t, tc.data, tc.mode)
			if tc.corrupt {
				if !errors.Is(err, errTestCorrupt) {
					t.Fatalf("err = %v, want the format's corrupt error", err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if got != tc.want || st != tc.st {
				t.Fatalf("replayed %s %+v, want %s %+v", got, st, tc.want, tc.st)
			}
			if !bytes.Equal(after, tc.after) {
				t.Fatalf("file after open is %d bytes, want %d", len(after), len(tc.after))
			}
		})
	}
}

func TestReplayChecksHeader(t *testing.T) {
	clean, _ := threeRecords(t)
	for _, off := range []int{0, 4, 8, 15} {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x20
		if _, _, err, _ := replayed(t, data, Owner); !errors.Is(err, errTestCorrupt) {
			t.Errorf("header byte %d flipped: err = %v, want the format's corrupt error", off, err)
		}
	}
	if _, _, err, _ := replayed(t, clean[:HeaderLen-1], ReadOnly); !errors.Is(err, errTestCorrupt) {
		t.Errorf("short header: err = %v, want the format's corrupt error", err)
	}
}

func TestAppendRejectsBodyThatDoesNotFitHeader(t *testing.T) {
	m := vfs.NewMem()
	l, err := Create(m, "log", testFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Append(false, 1, 0, 4, []byte("abc")); err == nil {
		t.Fatal("Append of a 3-byte body announced as 4 succeeded")
	}
	if _, _, err := l.Append(false, 1, 0, 2<<20, make([]byte, 2<<20)); err == nil {
		t.Fatal("Append of a body over the format's bound succeeded")
	}
	if got := len(readFile(t, m, "log")); got != HeaderLen {
		t.Fatalf("refused appends left a %d-byte file", got)
	}
}

// TestCommitFailureTruncatesToDurable: a failed sync drops every record
// from the first one still waiting for a commit, and poisons the log.
func TestCommitFailureTruncatesToDurable(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{Op: faultio.OpSync, PathGlob: "log", Nth: 3}}})
	l, err := Create(m, "log", testFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, seq, err := l.Append(true, 1, 0, 3, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	durable := l.size
	if _, _, err := l.Append(false, 2, 0, 3, []byte("two")); err != nil {
		t.Fatal(err)
	}
	_, seq, err = l.Append(true, 3, 0, 5, []byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("commit over a failed sync: err = %v, want the injected failure", err)
	}
	// "two" asked for no commit, so it stays: only the tail from the
	// first record awaiting one is dropped.
	if want := durable + RecHeaderLen + 3 + TrailerLen; l.size != want || int64(len(readFile(t, m, "log"))) != want {
		t.Fatalf("log is %d bytes after a failed commit, want %d", l.size, want)
	}
	if _, _, err := l.Append(false, 4, 0, 4, []byte("four")); err == nil {
		t.Fatal("Append after a failed sync succeeded")
	}
}

func TestRewrite(t *testing.T) {
	clean, _ := threeRecords(t)
	m := vfs.NewMem()
	writeFile(t, m, "log", clean)
	l, _, err := Open(m, "log", testFormat, Owner, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_, seq, err := l.Append(true, 4, 40, 4, []byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	err = l.Rewrite(func(put func(kind, a, b uint32, body ...[]byte) error) error {
		return put(9, 90, 7, []byte("rew"), []byte("rote"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite made the pending append durable: its commit returns.
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(false, 5, 50, 4, []byte("five")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := m.Stat("log.rewrite"); err == nil {
		t.Fatal("rewrite left its temporary file behind")
	}
	if got, _, err, _ := replayed(t, readFile(t, m, "log"), Owner); err != nil || got != "[9/90/rewrote 5/50/five]" {
		t.Fatalf("rewritten log replays %s, %v", got, err)
	}
}

func TestReadRecord(t *testing.T) {
	clean, ends := threeRecords(t)
	m := vfs.NewMem()
	writeFile(t, m, "log", clean)
	l, _, err := Open(m, "log", testFormat, ReadOnly, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var buf []byte
	body, err := l.ReadRecord(int64(ends[0]), 3, &buf)
	if err != nil || string(body) != "two" {
		t.Fatalf("ReadRecord = %q, %v", body, err)
	}
	if _, err := l.ReadRecord(int64(ends[0]+1), 3, &buf); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("ReadRecord off a record boundary: err = %v, want the format's corrupt error", err)
	}
	if _, err := l.ReadRecord(int64(ends[0]), 2, &buf); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("ReadRecord with a wrong length: err = %v, want the format's corrupt error", err)
	}
}

// TestFindAcrossBlocks places the magic where Find's 64 KiB blocks meet
// and checks that try sees every occurrence in order until it accepts.
func TestFindAcrossBlocks(t *testing.T) {
	const magic = 0xA1B2C3D4
	data := make([]byte, 200<<10)
	at := []int64{10, 64<<10 - 2, 64<<10 + 5, 128<<10 - 1, 200<<10 - 4}
	for _, off := range at {
		binary.LittleEndian.PutUint32(data[off:], magic)
	}
	m := vfs.NewMem()
	writeFile(t, m, "f", data)
	f, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for accept := range at {
		var seen []int64
		got, err := Find(f, 1, int64(len(data)), magic, func(off int64) (bool, error) {
			seen = append(seen, off)
			return off == at[accept], nil
		})
		if err != nil || got != at[accept] || fmt.Sprint(seen) != fmt.Sprint(at[:accept+1]) {
			t.Fatalf("accept %d: Find = %d, %v after trying %v", at[accept], got, err, seen)
		}
	}
	got, err := Find(f, 0, int64(len(data)), magic, func(int64) (bool, error) { return false, nil })
	if err != nil || got != -1 {
		t.Fatalf("Find with no acceptable offset = %d, %v, want -1", got, err)
	}
}
