// Package vfs is the file-operations seam of the storage stack. Every
// durable on-disk format — the .fdc container shards, the .fdr snapshot
// catalog, the .fdt trace log — performs its file operations through the
// FS interface instead of calling package os directly, so a test harness
// can substitute a fault-injecting filesystem (internal/faultio) under
// the exact production code paths: no special test-only writers, no
// mocked-out formats.
//
// OS is the production implementation: a zero-cost passthrough to package
// os. Mem is the in-memory one, which internal/faultio extends. The
// interface is deliberately minimal — exactly the operations the storage
// stack uses, nothing speculative — so implementations stay small.
//
// StartSync is the one primitive beyond the interface: it starts a
// file's fsync and hands back a PendingSync to wait on, so a commit that
// makes many files durable (the container seal pass, store creation)
// overlaps one file's flush with the next file's write. On OS the fsync
// runs on its own goroutine. A filesystem that declares its syncs ordered
// (SyncOrderer: Mem, where Sync is a no-op, and faultio.MemFS, whose
// crash clock must see one operation sequence) runs it inline, so the
// sync completes before the caller's next operation.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is one open file. The storage stack reads and writes at explicit
// offsets (ReadAt/WriteAt), appends sequentially during rewrites (Write),
// truncates torn tails, and fsyncs at durability boundaries. A File
// obtained by opening a directory supports only Sync and Close (the
// directory-sync idiom after creates and renames).
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Closer
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Sync flushes the file to stable storage; a nil return is the
	// durability acknowledgment every format's contract is built on.
	Sync() error
	// Stat returns the file's metadata (the formats use Size).
	Stat() (os.FileInfo, error)
	// Name returns the name the file was opened with.
	Name() string
}

// FS is the filesystem the storage stack runs against.
type FS interface {
	// OpenFile is the general open call, with os.O_* flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file (or a directory, for directory syncs) read-only.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath — the commit point
	// of every compaction and rewrite.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat returns file metadata without opening it.
	Stat(name string) (os.FileInfo, error)
	// Glob returns the names matching the shell pattern, like
	// filepath.Glob.
	Glob(pattern string) ([]string, error)
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the production filesystem: package os, unwrapped.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir fsyncs a directory so renames and file creations within it are
// durable. A filesystem that does not support syncing a directory
// (EINVAL, ENOTSUP) gives nothing to wait for, and that is not an error;
// any other failure is.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if unsupported(err) {
		return nil
	}
	return err
}

// unsupported reports whether err is a platform's refusal to sync a
// directory at all.
func unsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// SyncOrderer is implemented by a filesystem whose syncs StartSync must
// run inline, in issue order, on the caller's goroutine. A wrapper
// around another FS forwards the declaration of the FS it wraps:
//
//	func (w *wrapper) SyncsOrdered() bool { return vfs.SyncsOrdered(w.FS) }
type SyncOrderer interface {
	SyncsOrdered() bool
}

// SyncsOrdered reports whether fsys declares its syncs ordered.
func SyncsOrdered(fsys FS) bool {
	o, ok := fsys.(SyncOrderer)
	return ok && o.SyncsOrdered()
}

// PendingSync is one fsync started by StartSync.
type PendingSync struct {
	done chan struct{} // closed once err is set; nil after an inline sync
	err  error
}

// StartSync starts f.Sync, f being a file of fsys, and returns without
// waiting for it unless fsys declares its syncs ordered. The caller must
// Wait on every PendingSync it starts, and must not use f until then.
func StartSync(fsys FS, f File) *PendingSync {
	p := new(PendingSync)
	if SyncsOrdered(fsys) {
		p.err = f.Sync()
		return p
	}
	p.done = make(chan struct{})
	go func() {
		p.err = f.Sync()
		close(p.done)
	}()
	return p
}

// Wait blocks until the fsync has returned and reports its result: nil
// is the durability acknowledgment, as from File.Sync.
func (p *PendingSync) Wait() error {
	if p.done != nil {
		<-p.done
	}
	return p.err
}

// Failed reports, without blocking, whether the fsync has already
// returned an error. After an inline sync the answer is final; a sync
// still running reports false.
func (p *PendingSync) Failed() bool {
	if p.done != nil {
		select {
		case <-p.done:
		default:
			return false
		}
	}
	return p.err != nil
}
