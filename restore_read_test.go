package freqdedup

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"freqdedup/internal/vfs"
)

// readCountingFS counts the bytes every file it opens hands back from
// ReadAt: what a restore actually pulls off the disk.
type readCountingFS struct {
	vfs.FS
	read atomic.Int64
}

type readCountingFile struct {
	vfs.File
	read *atomic.Int64
}

func (f readCountingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

func (c *readCountingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return readCountingFile{File: f, read: &c.read}, nil
}

func (c *readCountingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return readCountingFile{File: f, read: &c.read}, nil
}

// TestRestoreReadsWhatItReturns holds a file-backed restore to its read
// budget at the filesystem seam: a fresh 32 MiB snapshot is restored
// reading at most 1.5× its size, and the last of four further generations
// — each a few percent of scattered edits, so its chunks sit in five
// backups' containers and every container read drags unreferenced chunks
// along — reading at most 3×.
func TestRestoreReadsWhatItReturns(t *testing.T) {
	fs := &readCountingFS{FS: vfs.OS}
	repo, err := CreateRepository(t.TempDir(), WithFileSystem(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	restoreReads := func(name string, want []byte) float64 {
		before := fs.read.Load()
		mustRestore(t, repo, name, want)
		return float64(fs.read.Load()-before) / float64(len(want))
	}

	data := repoData(31, 32<<20)
	mustBackup(t, repo, "gen0", data)
	if amp := restoreReads("gen0", data); amp > 1.5 {
		t.Fatalf("fresh snapshot: restore read %.2f× the snapshot's size, want ≤ 1.5×", amp)
	}

	rng := rand.New(rand.NewSource(32))
	for g := 1; g <= 4; g++ {
		data = append([]byte(nil), data...)
		for edit := 0; edit < 24; edit++ {
			at := rng.Intn(len(data) - 64<<10)
			rng.Read(data[at : at+64<<10])
		}
		mustBackup(t, repo, fmt.Sprintf("gen%d", g), data)
	}
	if amp := restoreReads("gen4", data); amp > 3 {
		t.Fatalf("incremental snapshot: restore read %.2f× the snapshot's size, want ≤ 3×", amp)
	}
}
