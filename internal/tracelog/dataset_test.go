package tracelog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"freqdedup/internal/faultio"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
	"freqdedup/internal/workload"
)

// memFile returns the bytes of path on m.
func memFile(t testing.TB, m *vfs.Mem, path string) []byte {
	t.Helper()
	f, err := m.Open(path)
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

// putMemFile stores data as path on m.
func putMemFile(t testing.TB, m *vfs.Mem, path string, data []byte) {
	t.Helper()
	f, err := m.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeDataset returns d's WriteDataset encoding.
func encodeDataset(t testing.TB, d *trace.Dataset) []byte {
	t.Helper()
	m := vfs.NewMem()
	if err := WriteDataset(m, "d.fdt", d); err != nil {
		t.Fatal(err)
	}
	return memFile(t, m, "d.fdt")
}

// sameBackups reports whether got's backups equal want's, label and
// chunk for chunk (an empty backup reads back as an empty slice).
func sameBackups(got, want []*trace.Backup) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Label != want[i].Label || !refsEqual(got[i].Chunks, want[i].Chunks) {
			return false
		}
	}
	return true
}

// TestDatasetRoundTrip: WriteDataset then ReadDataset gives back the
// backups unchanged and names the dataset after the file; a second write
// replaces the file and leaves no temporary behind.
func TestDatasetRoundTrip(t *testing.T) {
	d, err := workload.Generate("synthetic", workload.Config{Seed: 1, Backups: 4, TotalBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Two backups large enough to spill several chunks records each.
	big := &trace.Dataset{Backups: []*trace.Backup{
		{Label: "big-0", Chunks: testRefs(1, 3*sessionSpillBytes/refLen)},
		{Label: "big-1", Chunks: testRefs(2, 100)},
	}}

	m := vfs.NewMem()
	for _, want := range []*trace.Dataset{d, big} {
		if err := WriteDataset(m, "dir/fileserver.fdt", want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDataset(m, "dir/fileserver.fdt")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != "fileserver" {
			t.Fatalf("Name = %q, want the file's base name %q", got.Name, "fileserver")
		}
		if !sameBackups(got.Backups, want.Backups) {
			t.Fatal("ReadDataset did not return the backups WriteDataset stored")
		}
		if _, err := m.Stat("dir/fileserver.fdt.tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("temporary file left behind: %v", err)
		}
	}
}

// TestWriteDatasetDirSyncAfterRename: once the rename has replaced the
// file, WriteDataset has written the dataset, so a failed sync of the
// directory after it (the second sync of "dir"; the first is the
// temporary file's creation) is not reported.
func TestWriteDatasetDirSyncAfterRename(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{Op: faultio.OpSync, PathGlob: "dir", Nth: 2}}})
	want := &trace.Dataset{Backups: []*trace.Backup{{Label: "b", Chunks: testRefs(1, 100)}}}
	if err := WriteDataset(m, "dir/d.fdt", want); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	got, err := ReadDataset(m, "dir/d.fdt")
	if err != nil {
		t.Fatal(err)
	}
	if !sameBackups(got.Backups, want.Backups) {
		t.Fatal("ReadDataset did not return the backups WriteDataset stored")
	}
}

// TestDatasetRoundTripProperty: WriteDataset then ReadDataset is the
// identity on arbitrary datasets.
func TestDatasetRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &trace.Dataset{}
		nBackups := 1 + rng.Intn(4)
		for b := 0; b < nBackups; b++ {
			bk := &trace.Backup{Label: string(rune('a' + b))}
			n := rng.Intn(200)
			for i := 0; i < n; i++ {
				bk.Chunks = append(bk.Chunks, trace.ChunkRef{
					FP:   fphash.FromUint64(rng.Uint64()),
					Size: rng.Uint32(),
				})
			}
			d.Backups = append(d.Backups, bk)
		}
		m := vfs.NewMem()
		if err := WriteDataset(m, "prop.fdt", d); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDataset(m, "prop.fdt")
		return err == nil && got.Name == "prop" && sameBackups(got.Backups, d.Backups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReadDatasetRejectsGarbage: a file that is not a trace log, an
// empty file, a header cut short, and every damage a tolerant replay
// would skip — a tail cut short, a flipped byte in the final record,
// trailing bytes, a length raised past the end, a backup whose end
// record is gone — are ErrCorrupt for a closed log.
func TestReadDatasetRejectsGarbage(t *testing.T) {
	enc := encodeDataset(t, &trace.Dataset{Backups: []*trace.Backup{
		{Label: "1", Chunks: testRefs(1, 1)},
		{Label: "2", Chunks: testRefs(2, 3)},
	}})
	endLen := recHeaderLen + 8 + recTrailerLen
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), enc...)) }
	for name, data := range map[string][]byte{
		"garbage":   []byte("not a trace log at all"),
		"empty":     nil,
		"short":     enc[:logHeaderLen-3],
		"end-3":     enc[:len(enc)-3],
		"end-1":     enc[:len(enc)-1],
		"tail 16B":  append(append([]byte(nil), enc...), make([]byte, recHeaderLen)...),
		"tail 2B":   append(append([]byte(nil), enc...), 0xde, 0xad),
		"no end":    enc[:len(enc)-endLen],
		"last flip": mutate(func(b []byte) []byte { b[len(b)-endLen+recHeaderLen] ^= 1; return b }),
		"last crc":  mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }),
		"long len": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[logHeaderLen+12:], uint32(len(b)))
			return b
		}),
	} {
		m := vfs.NewMem()
		putMemFile(t, m, "x.fdt", data)
		if _, err := ReadDataset(m, "x.fdt"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestReadDatasetForgedChunkCount: an end record whose checksum is valid
// but whose chunk count is forged to 4 billion fails cleanly, without a
// pre-allocation sized by the forged count.
func TestReadDatasetForgedChunkCount(t *testing.T) {
	data := encodeDataset(t, &trace.Dataset{Backups: []*trace.Backup{{Label: "y", Chunks: testRefs(1, 3)}}})
	end := data[len(data)-(recHeaderLen+8+recTrailerLen):]
	binary.LittleEndian.PutUint64(end[recHeaderLen:], 0xffffffff)
	binary.LittleEndian.PutUint32(end[recHeaderLen+8:], crc32.ChecksumIEEE(end[:recHeaderLen+8]))
	m := vfs.NewMem()
	putMemFile(t, m, "x.fdt", data)
	if _, err := ReadDataset(m, "x.fdt"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// FuzzTraceLog mutates WriteDataset encodings: XOR one byte, optionally
// truncate, optionally append a tail. The oracle is FuzzIndexManifest's,
// tightened for a closed log: ReadDataset either fails with ErrCorrupt
// (or a plain short-read I/O error), or returns the encoded backups,
// each identical. The one shorter answer allowed is the backups before
// a cut that falls exactly between two backups, which the format cannot
// tell from a log that never held more.
func FuzzTraceLog(f *testing.F) {
	syn, err := workload.Generate("synthetic", workload.Config{Seed: 1, Backups: 3, TotalBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	fsl, err := workload.Generate("fsl", workload.Config{Seed: 2, Users: 2, Backups: 2, TotalBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	hand := &trace.Dataset{Backups: []*trace.Backup{
		{Label: "only", Chunks: []trace.ChunkRef{{FP: [8]byte{1}, Size: 4096}, {FP: [8]byte{2}, Size: 512}}},
		{Label: "", Chunks: nil},
	}}
	seeds := []*trace.Dataset{syn, fsl, hand}
	encs := make([][]byte, len(seeds))
	// bounds[i][k] is the length of seed i's encoding cut after k backups.
	bounds := make([][]int, len(seeds))
	for i, d := range seeds {
		encs[i] = encodeDataset(f, d)
		for k := range d.Backups {
			bounds[i] = append(bounds[i], len(encodeDataset(f, &trace.Dataset{Backups: d.Backups[:k]})))
		}
		n := uint32(len(encs[i]))
		f.Add(uint8(i), uint32(0), byte(0), uint32(0), []byte(nil))
		f.Add(uint8(i), n/3, byte(0x40), uint32(0), []byte(nil))
		f.Add(uint8(i), uint32(0), byte(0), n/2, []byte(nil))
		f.Add(uint8(i), uint32(0), byte(0), n-3, []byte(nil))
		f.Add(uint8(i), n-1, byte(1), uint32(0), []byte("tail"))
		f.Add(uint8(i), uint32(0), byte(0), uint32(bounds[i][len(bounds[i])-1]), []byte(nil))
	}

	f.Fuzz(func(t *testing.T, seed uint8, off uint32, xor byte, cut uint32, tail []byte) {
		i := int(seed) % len(seeds)
		want := seeds[i]
		data := append([]byte(nil), encs[i]...)
		data[off%uint32(len(data))] ^= xor
		if cut > 0 && cut < uint32(len(data)) {
			data = data[:cut]
		}
		data = append(data, tail...)
		m := vfs.NewMem()
		putMemFile(t, m, "seed.fdt", data)
		got, err := ReadDataset(m, "seed.fdt")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("ReadDataset failed with unexpected error class: %v", err)
			}
			return
		}
		k := len(got.Backups)
		if k > len(want.Backups) || !sameBackups(got.Backups, want.Backups[:k]) {
			t.Fatalf("mutated log read back %d backups that are not a prefix of the %d written", k, len(want.Backups))
		}
		if k < len(want.Backups) && len(data) != bounds[i][k] {
			t.Fatalf("a %d-byte mutated log read back %d of %d backups; only a cut at byte %d may", len(data), k, len(want.Backups), bounds[i][k])
		}
	})
}
