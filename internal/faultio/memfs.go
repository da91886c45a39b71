package faultio

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"freqdedup/internal/vfs"
)

// MemFS is a vfs.Mem with an explicit durability model and a fault
// injector — the substrate of the crash-point explorer. Every file
// carries two states:
//
//   - the vfs.Mem file: the volatile view, what reads observe — page
//     cache.
//   - synced: the durable view, what survives a crash — the content at
//     the last acknowledged Sync (nil if never synced).
//
// Writes mutate only the volatile view; Sync copies it to the durable
// one. A file that was never synced does not exist in the crash image at
// all. Rename and Remove take durable effect immediately (the model of a
// journaling filesystem where the stack syncs files before renaming
// them, which all three freqdedup formats do); a renamed file keeps its
// synced state.
//
// CrashImage materializes the durable view as a fresh MemFS: reopening
// the stack against it simulates a machine that lost power after the
// plan's crash point.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	mem   *vfs.Mem
	files map[string]*memFile // durable state of each of mem's files
	inj   *Injector
}

// memFile is one file's durable view, shared by every handle open on it.
type memFile struct {
	synced []byte // nil = never synced: absent from the crash image
}

// NewMemFS returns an empty MemFS injecting nothing.
func NewMemFS() *MemFS { return NewMemFSPlan(Plan{}) }

// NewMemFSPlan returns an empty MemFS armed with the fault plan.
func NewMemFSPlan(plan Plan) *MemFS {
	return &MemFS{mem: vfs.NewMem(), files: make(map[string]*memFile), inj: NewInjector(plan)}
}

// Injector returns the filesystem's injector, for reading the op counter
// and sync points after a workload.
func (m *MemFS) Injector() *Injector { return m.inj }

// observe routes one operation through the injector, returning the error
// the operation must fail with (nil to proceed) and the matched fault for
// corruption-type rules.
func (m *MemFS) observe(op Op, path string, mutating bool) (Fault, error) {
	f, matched, err := m.inj.observe(op, path, mutating)
	if err != nil {
		return Fault{}, err
	}
	if !matched {
		return Fault{}, nil
	}
	return f, f.err()
}

// CrashImage returns the durable view as a fresh, fault-free MemFS: only
// files that were synced at least once, each with its last-synced
// content. Directories survive (metadata journaling).
func (m *MemFS) CrashImage() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := &MemFS{mem: m.mem.Clone(), files: make(map[string]*memFile), inj: NewInjector(Plan{})}
	// The clone holds every name in m.files, so none of these vfs.Mem
	// calls can fail.
	for name, f := range m.files {
		if f.synced == nil {
			img.mem.Remove(name)
			continue
		}
		h, _ := img.mem.OpenFile(name, os.O_RDWR|os.O_TRUNC, 0)
		h.WriteAt(f.synced, 0)
		h.Close()
		img.files[name] = &memFile{synced: append([]byte(nil), f.synced...)}
	}
	return img
}

// CorruptAt flips the given bit mask at a byte offset of the named file's
// durable content (and the volatile view, as a real media error would
// surface through the page cache after eviction), for precisely aimed
// post-fsync damage.
func (m *MemFS) CorruptAt(name string, off int64, mask byte) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("faultio: corrupt %s: %w", name, fs.ErrNotExist)
	}
	if f.synced == nil || off < 0 || off >= int64(len(f.synced)) {
		return fmt.Errorf("faultio: corrupt %s: offset %d outside durable bytes", name, off)
	}
	f.synced[off] ^= mask
	h, err := m.mem.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer h.Close()
	flipVolatile(h, off, mask)
	return nil
}

// flipVolatile flips mask at off in the volatile view, if the file
// reaches that far.
func flipVolatile(h vfs.File, off int64, mask byte) {
	var b [1]byte
	if _, err := h.ReadAt(b[:], off); err == nil {
		b[0] ^= mask
		h.WriteAt(b[:], off)
	}
}

// OpenFile implements vfs.FS.
func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	_, exists := m.files[name]
	m.mu.Unlock()

	op := OpOpen
	creating := !exists && flag&os.O_CREATE != 0
	if creating {
		op = OpCreate
	}
	if _, err := m.observe(op, name, creating); err != nil {
		return nil, wrapPathErr("open", name, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	inner, err := m.mem.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	return &memHandle{File: inner, fs: m, f: f}, nil
}

// Open implements vfs.FS. Opening a directory returns a handle usable
// only for Sync and Close, as with package os.
func (m *MemFS) Open(name string) (vfs.File, error) {
	name = filepath.Clean(name)
	if _, err := m.observe(OpOpen, name, false); err != nil {
		return nil, wrapPathErr("open", name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	inner, err := m.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return &memHandle{File: inner, fs: m, f: m.files[name]}, nil
}

// Rename implements vfs.FS. The rename takes durable effect immediately;
// the renamed file keeps its synced state (the stack always syncs before
// renaming, and the model charges directory-metadata journaling to the
// filesystem).
func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if _, err := m.observe(OpRename, newpath, true); err != nil {
		return wrapPathErr("rename", newpath, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.mem.Rename(oldpath, newpath); err != nil {
		return err
	}
	m.files[newpath] = m.files[oldpath]
	delete(m.files, oldpath)
	return nil
}

// Remove implements vfs.FS; durable immediately, like Rename.
func (m *MemFS) Remove(name string) error {
	name = filepath.Clean(name)
	if _, err := m.observe(OpRemove, name, true); err != nil {
		return wrapPathErr("remove", name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.mem.Remove(name); err != nil {
		return err
	}
	delete(m.files, name)
	return nil
}

// Stat implements vfs.FS.
func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	if _, err := m.observe(OpStat, name, false); err != nil {
		return nil, wrapPathErr("stat", name, err)
	}
	return m.mem.Stat(name)
}

// Glob implements vfs.FS.
func (m *MemFS) Glob(pattern string) ([]string, error) { return m.mem.Glob(pattern) }

// MkdirAll implements vfs.FS.
func (m *MemFS) MkdirAll(path string, perm os.FileMode) error { return m.mem.MkdirAll(path, perm) }

// memHandle is one open MemFS file (or directory, with a nil f): the
// vfs.Mem handle under the injector, with the durable view beside it.
type memHandle struct {
	vfs.File
	fs  *MemFS
	f   *memFile
	pos int64 // sequential-Write position
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.f == nil {
		return h.File.ReadAt(p, off) // a directory: fails without an op
	}
	if _, err := h.fs.observe(OpRead, h.Name(), false); err != nil {
		return 0, wrapPathErr("read", h.Name(), err)
	}
	return h.File.ReadAt(p, off)
}

// WriteAt applies one (possibly faulted) write to the volatile view.
func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	fault, err := h.fs.observe(OpWrite, h.Name(), true)
	if err != nil {
		// A failing write may still tear a prefix into the page cache.
		if fault.ShortWrite && len(p) > 0 {
			var n int
			h.fs.inj.random(func(rng *rand.Rand) { n = rng.Intn(len(p)) })
			h.fs.mu.Lock()
			h.File.WriteAt(p[:n], off)
			h.fs.mu.Unlock()
		}
		return 0, wrapPathErr("write", h.Name(), err)
	}
	if fault.FlipBit && len(p) > 0 {
		// Corrupt one bit in flight: the caller's buffer is only
		// borrowed, so flip a copy.
		q := append([]byte(nil), p...)
		h.fs.inj.random(func(rng *rand.Rand) {
			q[rng.Intn(len(q))] ^= 1 << rng.Intn(8)
		})
		p = q
	}
	// fs.mu keeps a concurrent Sync's copy of the volatile view atomic.
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.File.WriteAt(p, off)
}

// Write keeps its own position: a failed write, torn or not, does not
// advance it.
func (h *memHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) Truncate(size int64) error {
	if _, err := h.fs.observe(OpTruncate, h.Name(), true); err != nil {
		return wrapPathErr("truncate", h.Name(), err)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.File.Truncate(size)
}

func (h *memHandle) Sync() error {
	fault, err := h.fs.observe(OpSync, h.Name(), true)
	if err != nil {
		return wrapPathErr("sync", h.Name(), err)
	}
	if h.f == nil {
		// Directory sync: metadata is already durable in this model, but
		// the op still ticks the crash clock like a real fdatasync would.
		return nil
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.File.Sync(); err != nil {
		return err // closed
	}
	st, err := h.File.Stat()
	if err != nil {
		return err
	}
	data := make([]byte, st.Size())
	if _, err := h.File.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	synced := append(h.f.synced[:0], data...)
	h.f.synced = synced
	if fault.FlipBit && len(synced) > 0 {
		// Post-fsync corruption: the sync is acknowledged, the media lies.
		h.fs.inj.random(func(rng *rand.Rand) {
			off := rng.Intn(len(synced))
			mask := byte(1 << rng.Intn(8))
			synced[off] ^= mask
			flipVolatile(h.File, int64(off), mask)
		})
	}
	return nil
}

func wrapPathErr(op, path string, err error) error {
	return &os.PathError{Op: op, Path: path, Err: err}
}
