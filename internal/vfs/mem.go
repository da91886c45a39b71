package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Mem is an in-memory FS: a map of files plus a set of directories, with
// os semantics for every operation the storage stack uses. It has no
// durability model — Sync is a no-op, and nothing survives the process —
// so an in-memory repository runs the exact on-disk formats of a
// file-backed one, minus the device. internal/faultio layers a durable
// view, fault injection and crash images on top of it.
//
// Unlike package os, creating a file also creates its missing parent
// directories. Glob matches files only.
//
// Mem is safe for concurrent use.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// memFile is one file's bytes, shared by every handle open on it; a
// removed or renamed-over file lives on in the handles still open on it.
type memFile struct {
	data []byte
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), dirs: map[string]bool{".": true}}
}

// Clone returns a deep copy of the filesystem's files and directories.
func (m *Mem) Clone() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMem()
	for name, f := range m.files {
		c.files[name] = &memFile{data: append([]byte(nil), f.data...)}
	}
	for d := range m.dirs {
		c.dirs[d] = true
	}
	return c
}

func (m *Mem) mkParents(name string) {
	for d := filepath.Dir(name); d != "." && d != "/" && !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
}

// OpenFile implements FS.
func (m *Mem) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, exists := m.files[name]
	switch {
	case !exists && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case exists && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !exists:
		f = &memFile{}
		m.files[name] = f
		m.mkParents(name)
	}
	if flag&os.O_TRUNC != 0 {
		f.data = f.data[:0]
	}
	return &memHandle{fs: m, name: name, f: f, writable: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

// Open implements FS. Opening a directory returns a handle usable only
// for Sync and Close, as with package os.
func (m *Mem) Open(name string) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return &memHandle{fs: m, name: name}, nil
	}
	f, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memHandle{fs: m, name: name, f: f}, nil
}

// Rename implements FS.
func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	m.mkParents(newpath)
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Stat implements FS.
func (m *Mem) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	f, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return memInfo{name: filepath.Base(name), size: int64(len(f.data))}, nil
}

// Glob implements FS.
func (m *Mem) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(path string, perm os.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[path] = true
	m.mkParents(filepath.Join(path, "x"))
	return nil
}

// SyncsOrdered implements SyncOrderer: a Mem sync is a no-op, so
// StartSync runs it inline rather than on a goroutine.
func (m *Mem) SyncsOrdered() bool { return true }

// memHandle is one open Mem file, or a directory when f is nil.
type memHandle struct {
	fs       *Mem
	name     string
	f        *memFile
	writable bool
	pos      int64 // sequential-Write position
	closed   bool
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

func (h *memHandle) Stat() (os.FileInfo, error) {
	if h.f == nil {
		return memInfo{name: filepath.Base(h.name), dir: true}, nil
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return memInfo{name: filepath.Base(h.name), size: int64(len(h.f.data))}, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.f == nil {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: errors.New("is a directory")}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	if !h.writable {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	h.f.writeAt(p, off)
	return len(p), nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) Truncate(size int64) error {
	if !h.writable {
		return &os.PathError{Op: "truncate", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if size <= int64(len(h.f.data)) {
		h.f.data = h.f.data[:size]
	} else {
		h.f.extend(size)
	}
	return nil
}

// Sync is a no-op: Mem has no device to flush to.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed && h.f != nil {
		return os.ErrClosed
	}
	return nil
}

// writeAt copies p into the file at off, zero-filling any gap before it.
func (f *memFile) writeAt(p []byte, off int64) {
	f.extend(off)
	n := copy(f.data[off:], p)
	f.data = append(f.data, p[n:]...)
}

// extend zero-fills the file out to size bytes.
func (f *memFile) extend(size int64) {
	if n := size - int64(len(f.data)); n > 0 {
		f.data = append(f.data, make([]byte, n)...)
	}
}

// memInfo is Mem's os.FileInfo.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return os.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
