package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/vfs"
)

const pinDir = "store"

// memFile returns the contents of path on fsys.
func memFile(tb testing.TB, fsys vfs.FS, path string) []byte {
	tb.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		tb.Fatal(err)
	}
	return data
}

// pinnedStore builds a three-shard store of 256-byte containers on a
// vfs.Mem from fixed inputs, calling pin after each stage, and returns
// the filesystem and the containers sealed on shard 1, which no stage
// rewrites: a normal one, one holding a single oversized entry, and a
// small one.
func pinnedStore(tb testing.TB, pin func(stage string, fsys vfs.FS)) (vfs.FS, []*Container) {
	tb.Helper()
	fsys := vfs.NewMem()
	b, err := CreateFileBackendFS(fsys, pinDir, 3, 256)
	if err != nil {
		tb.Fatal(err)
	}
	defer b.Close()
	pin("create", fsys)
	box := func(id int, es ...Entry) *Container {
		c := &Container{ID: id, Entries: es}
		for _, e := range es {
			c.Bytes += int(e.Size)
		}
		return c
	}
	seal := func(shard int, c *Container) {
		tb.Helper()
		if err := b.Seal(shard, c); err != nil {
			tb.Fatal(err)
		}
	}
	shard1 := []*Container{
		box(0, dataEntry(4, 50), dataEntry(5, 60), dataEntry(6, 70)),
		box(1, dataEntry(8, 1000)),
		box(2, dataEntry(9, 30)),
	}
	seal(0, box(0, dataEntry(1, 100), dataEntry(2, 100)))
	pin("seal", fsys)
	for i, err := range b.SealAll([]*Container{box(1, dataEntry(3, 120)), shard1[0], box(0, dataEntry(7, 200))}) {
		if err != nil {
			tb.Fatalf("SealAll shard %d: %v", i, err)
		}
	}
	pin("seal pass", fsys)
	seal(1, shard1[1])
	seal(1, shard1[2])
	pin("oversized entry", fsys)
	// Drop shard 0's container 0 and renumber its container 1 as 0.
	if err := b.Rewrite(0, []*Container{box(0, dataEntry(3, 120))}); err != nil {
		tb.Fatal(err)
	}
	pin("rewrite", fsys)
	return fsys, shard1
}

// TestShardBytesPinned holds the shard files, at each stage of a store's
// life, to SHA-256 sums recorded from the format's first writer: a
// change here is an on-disk format change.
func TestShardBytesPinned(t *testing.T) {
	want := map[string][3]string{
		"create": {
			"4dbd1f547d82a759c2117a712c29b39b3300dfd7b09a76a1b039626eb36640f6",
			"23e794ee8244ec9b77998e23f3b85c683fe27cb797c499810ad71475cda72311",
			"97b93b0c4bf61d69df852dd0434fca298189a1aec9359a0df7e1c097f04e5b65",
		},
		"seal": {
			"37b4174418fa85c81fc010a8190fc423f43233dba80909ed9eb9f4cf395515b0",
			"23e794ee8244ec9b77998e23f3b85c683fe27cb797c499810ad71475cda72311",
			"97b93b0c4bf61d69df852dd0434fca298189a1aec9359a0df7e1c097f04e5b65",
		},
		"seal pass": {
			"beddb2cd955851c114ef2219ad93478f10a69b741eaf34f8ff517ec549fb1ede",
			"5ffac2a8676d14e507500999a9c43d5ba24e86394e193fe6129e4cb7b5ba7027",
			"a0705233aadb81c1db6849685ff9fcd2780797a4233c5fd59609c0e7f9d036d8",
		},
		"oversized entry": {
			"beddb2cd955851c114ef2219ad93478f10a69b741eaf34f8ff517ec549fb1ede",
			"b23045d42bb2092a64e526d6a305b62ebcfa5d456ced68734b49c491bae98809",
			"a0705233aadb81c1db6849685ff9fcd2780797a4233c5fd59609c0e7f9d036d8",
		},
		"rewrite": {
			"6fc6540167f323cb3ee3fad501793ee6179cccd196d18e8c26656718c3e6f179",
			"b23045d42bb2092a64e526d6a305b62ebcfa5d456ced68734b49c491bae98809",
			"a0705233aadb81c1db6849685ff9fcd2780797a4233c5fd59609c0e7f9d036d8",
		},
	}
	pinnedStore(t, func(stage string, fsys vfs.FS) {
		for shard := 0; shard < 3; shard++ {
			sum := sha256.Sum256(memFile(t, fsys, filepath.Join(pinDir, shardFileName(shard))))
			if got := hex.EncodeToString(sum[:]); got != want[stage][shard] {
				t.Errorf("%s: shard %d sha256 %s, pinned %s", stage, shard, got, want[stage][shard])
			}
		}
	})
}

// FuzzContainerRecord damages shard 1 of pinnedStore's store — one XOR,
// a cut, appended bytes — and opens the store. The open must either fail
// with ErrCorrupt, leaving the file as it found it, or open a prefix of
// the containers sealed on shard 1, each of which loads as sealed or
// fails with ErrCorrupt: never other bytes.
func FuzzContainerRecord(f *testing.F) {
	fsys, sealed := pinnedStore(f, func(string, vfs.FS) {})
	name := filepath.Join(pinDir, shardFileName(1))
	enc := memFile(f, fsys, name)
	n := uint32(len(enc))
	others := [][]byte{memFile(f, fsys, filepath.Join(pinDir, shardFileName(0))), memFile(f, fsys, filepath.Join(pinDir, shardFileName(2)))}

	f.Add(uint32(0), byte(0), uint32(0), []byte(nil))
	// Byte 30 is the third byte of record 0's dataBytes: raised past the
	// end of the file, it looks like a torn tail.
	f.Add(uint32(30), byte(0x10), uint32(0), []byte(nil))
	f.Add(uint32(8), byte(0x01), uint32(0), []byte(nil))  // the shard index
	f.Add(uint32(12), byte(0x01), uint32(0), []byte(nil)) // the capacity
	f.Add(uint32(20), byte(0x01), uint32(0), []byte(nil)) // record 0's ID
	f.Add(n-10, byte(0x80), uint32(0), []byte(nil))       // the last record's data
	f.Add(uint32(0), byte(0), n-3, []byte(nil))
	f.Add(n-1, byte(1), uint32(0), []byte("tail"))

	f.Fuzz(func(t *testing.T, off uint32, xor byte, cut uint32, tail []byte) {
		data := append([]byte(nil), enc...)
		data[off%n] ^= xor
		if cut > 0 && cut < n {
			data = data[:cut]
		}
		data = append(data, tail...)
		m := vfs.NewMem()
		if err := m.MkdirAll(pinDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, d := range [][]byte{others[0], data, others[1]} {
			w, err := m.OpenFile(filepath.Join(pinDir, shardFileName(i)), os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(d)
			w.Close()
		}
		b, err := OpenFileBackendFS(m, pinDir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with unexpected error class: %v", err)
			}
			if !bytes.Equal(memFile(t, m, name), data) {
				t.Fatal("a refused open changed the file")
			}
			return
		}
		defer b.Close()
		count, _, err := b.SealedStats(1)
		if err != nil || count > len(sealed) {
			t.Fatalf("opened %d containers (%v), %d were sealed", count, err, len(sealed))
		}
		for id := 0; id < count; id++ {
			c, err := b.Load(1, id)
			if errors.Is(err, ErrCorrupt) {
				continue
			}
			if err != nil {
				t.Fatalf("Load of container %d: %v", id, err)
			}
			if len(c.Entries) != len(sealed[id].Entries) {
				t.Fatalf("container %d holds %d entries, %d were sealed", id, len(c.Entries), len(sealed[id].Entries))
			}
			for i, e := range c.Entries {
				w := sealed[id].Entries[i]
				if e.FP != w.FP || e.Size != w.Size || !bytes.Equal(e.Data, w.Data) {
					t.Fatalf("container %d entry %d loads other bytes than were sealed", id, i)
				}
			}
		}
	})
}
