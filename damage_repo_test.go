package freqdedup

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"freqdedup/internal/faultio"
)

// A crash tears only the record an append was writing, the last one. A
// damaged length field can make any record look like that torn tail, so
// an owner open that truncated on sight would delete every acknowledged
// record after it. These tests damage a length field mid-file in each
// append-only file a repository owns and check that the open refuses,
// leaves the file as it found it, and that salvage keeps the rest.

// writeMemFile replaces path on m with data.
func writeMemFile(t *testing.T, m *faultio.MemFS, path string, data []byte) {
	t.Helper()
	f, err := m.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// catalogRecordEnds returns the end offset of each record in a catalog
// file: 16-byte file header, then magic | kind | nameLen | payloadLen |
// name | payload | crc32 per record.
func catalogRecordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for pos := 16; pos < len(data); {
		if pos+16 > len(data) {
			t.Fatalf("catalog cut inside a record header at %d", pos)
		}
		pos += 16 + int(binary.LittleEndian.Uint32(data[pos+8:])) + int(binary.LittleEndian.Uint32(data[pos+12:])) + 4
		ends = append(ends, pos)
	}
	return ends
}

func TestCatalogDamagedLengthKeepsSnapshots(t *testing.T) {
	m := faultio.NewMemFS()
	ctx := context.Background()
	var key Key
	copy(key[:], "catalog damage key")
	opts := []RepositoryOption{WithFileSystem(m), WithRepositoryKey(key), WithShards(2), WithContainerBytes(64 << 10)}
	data := map[string][]byte{"a": repoData(51, 512<<10), "b": repoData(52, 512<<10), "c": repoData(53, 512<<10)}
	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		mustBackup(t, repo, name, data[name])
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	const path = "repo/catalog.fdr"
	clean := readMemFile(t, m, path)
	ends := catalogRecordEnds(t, clean)
	if len(ends) != 3 {
		t.Fatalf("catalog holds %d records, want 3", len(ends))
	}

	// Raise the second record's payload length by 64 KiB: its body now
	// runs past the end of the file, like a torn append's would.
	if err := m.CorruptAt(path, int64(ends[0])+14, 0x01); err != nil {
		t.Fatal(err)
	}
	damaged := readMemFile(t, m, path)
	if _, err := OpenRepository("repo", opts...); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("open over a damaged catalog length: err = %v, want ErrCatalogCorrupt", err)
	}
	if !bytes.Equal(readMemFile(t, m, path), damaged) {
		t.Fatal("a refused open changed the catalog file")
	}

	repo, err = OpenRepository("repo", append(opts, WithSalvage())...)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	rep, err := repo.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.CatalogRecordsDropped != 1 {
		t.Fatalf("repair dropped %d catalog records, want 1: %+v", rep.CatalogRecordsDropped, rep)
	}
	if snaps := repo.Snapshots(); len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "c" {
		t.Fatalf("salvaged snapshots %+v, want a and c", snaps)
	}
	mustRestore(t, repo, "a", data["a"])
	mustRestore(t, repo, "c", data["c"])
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// A real torn tail still truncates: cut into the last record of the
	// clean file and the owner open drops just that record.
	writeMemFile(t, m, path, clean[:ends[2]-7])
	repo, err = OpenRepository("repo", opts...)
	if err != nil {
		t.Fatalf("open over a torn catalog tail: %v", err)
	}
	defer repo.Close()
	if snaps := repo.Snapshots(); len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" {
		t.Fatalf("snapshots after a torn tail %+v, want a and b", snaps)
	}
	if got := len(readMemFile(t, m, path)); got != ends[1] {
		t.Fatalf("torn catalog truncated to %d bytes, want %d", got, ends[1])
	}
}

func TestShardDamagedLengthKeepsContainers(t *testing.T) {
	m := faultio.NewMemFS()
	ctx := context.Background()
	var key Key
	copy(key[:], "shard damage key")
	opts := []RepositoryOption{WithFileSystem(m), WithRepositoryKey(key), WithShards(1), WithContainerBytes(64 << 10)}
	data := repoData(61, 1<<20)
	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "snap", data)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte 30 is the third byte of record 0's dataBytes: the record now
	// claims a megabyte more data than the file holds.
	const path = "repo/shard-0000.fdc"
	if err := m.CorruptAt(path, 30, 0x10); err != nil {
		t.Fatal(err)
	}
	damaged := readMemFile(t, m, path)
	if _, err := OpenRepository("repo", opts...); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("open over a damaged container length: err = %v, want ErrStoreCorrupt", err)
	}
	if !bytes.Equal(readMemFile(t, m, path), damaged) {
		t.Fatal("a refused open changed the shard file")
	}

	repo, err = OpenRepository("repo", append(opts, WithSalvage(), WithDegradedRestore())...)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	defer repo.Close()
	rep, err := repo.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.SalvageContainersLost != 1 {
		t.Fatalf("repair lost %d containers, want 1: %+v", rep.SalvageContainersLost, rep)
	}
	var out bytes.Buffer
	err = repo.Restore(ctx, "snap", &out)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("restore after losing one container: err = %v, want *DegradedError", err)
	}
	if lost := de.BytesLost(); lost == 0 || lost > 128<<10 {
		t.Fatalf("restore lost %d bytes, want at most two containers' worth", lost)
	}
	want := append([]byte(nil), data...)
	for _, r := range de.Ranges {
		clear(want[r.Offset : r.Offset+r.Length])
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("degraded restore differs outside the reported lost ranges")
	}
}

// shardRecordStarts returns the offset of each record in a container
// shard file: 16-byte file header, then magic | id | entries | dataBytes
// | entries × 12-byte index | data | crc32 per record.
func shardRecordStarts(t *testing.T, data []byte) []int {
	t.Helper()
	var starts []int
	for pos := 16; pos < len(data); {
		if pos+16 > len(data) {
			t.Fatalf("shard cut inside a record header at %d", pos)
		}
		starts = append(starts, pos)
		pos += 16 + 12*int(binary.LittleEndian.Uint32(data[pos+8:])) + int(binary.LittleEndian.Uint32(data[pos+12:])) + 4
	}
	return starts
}

// TestShardLastRecordFlipStaysError flips a data byte in the last record
// of a closed repository's shard. That is media damage under an
// acknowledged container, not a torn append: the open must keep the
// record, a restore must report it, and Repair must quarantine it.
func TestShardLastRecordFlipStaysError(t *testing.T) {
	m := faultio.NewMemFS()
	ctx := context.Background()
	var key Key
	copy(key[:], "last record flip key")
	opts := []RepositoryOption{WithFileSystem(m), WithRepositoryKey(key), WithShards(1), WithContainerBytes(64 << 10)}
	data := repoData(71, 1<<20)
	repo, err := CreateRepository("repo", opts...)
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, repo, "snap", data)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	const path = "repo/shard-0000.fdc"
	clean := readMemFile(t, m, path)
	starts := shardRecordStarts(t, clean)
	last := starts[len(starts)-1]
	entries := int(binary.LittleEndian.Uint32(clean[last+8:]))
	if err := m.CorruptAt(path, int64(last+16+12*entries+5), 0x01); err != nil {
		t.Fatal(err)
	}
	damaged := readMemFile(t, m, path)

	repo, err = OpenRepository("repo", opts...)
	if err != nil {
		t.Fatalf("open over a flipped last record: %v", err)
	}
	if !bytes.Equal(readMemFile(t, m, path), damaged) {
		t.Fatal("the open changed the shard file")
	}
	if err := repo.Restore(ctx, "snap", &bytes.Buffer{}); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("restore over a flipped last record: err = %v, want ErrStoreCorrupt", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = OpenRepository("repo", append(opts, WithDegradedRestore())...)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	var out bytes.Buffer
	err = repo.Restore(ctx, "snap", &out)
	var de *DegradedError
	if !errors.As(err, &de) || de.BytesLost() == 0 {
		t.Fatalf("degraded restore over a flipped last record: err = %v, want *DegradedError", err)
	}
	want := append([]byte(nil), data...)
	for _, r := range de.Ranges {
		clear(want[r.Offset : r.Offset+r.Length])
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("degraded restore differs outside the reported lost ranges")
	}

	rep, err := repo.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.ContainersQuarantined != 1 || len(rep.QuarantinePaths) != 1 {
		t.Fatalf("repair %+v, want the last container quarantined", rep)
	}
	if got := readMemFile(t, m, rep.QuarantinePaths[0]); !bytes.Equal(got, damaged[last:]) {
		t.Fatalf("%s does not hold the damaged record's raw bytes", rep.QuarantinePaths[0])
	}
	if got := readMemFile(t, m, path); !bytes.Equal(got, clean[:last]) {
		t.Fatalf("repaired shard is %d bytes, want the %d bytes of the containers before the damaged one", len(got), last)
	}
}
