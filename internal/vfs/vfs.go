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
package vfs

import (
	"io"
	"os"
	"path/filepath"
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
// durable. Directory fsync is best-effort on the OS filesystem — some
// filesystems reject it — so only the open is reported; fault-injecting
// filesystems count the sync as an operation regardless.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
