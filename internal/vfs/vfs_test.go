package vfs_test

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freqdedup/internal/faultio"
	"freqdedup/internal/vfs"
)

// writeFile creates name with the given content through fsys.
func writeFile(t *testing.T, fsys vfs.FS, name, content string) {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readFile returns name's whole content through fsys.
func readFile(t *testing.T, fsys vfs.FS, name string) string {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return string(buf)
}

// TestConformance holds every FS implementation to package os's
// semantics on the operations the storage formats rely on.
func TestConformance(t *testing.T) {
	impls := []struct {
		name string
		new  func(t *testing.T) (vfs.FS, string)
	}{
		{"OS", func(t *testing.T) (vfs.FS, string) { return vfs.OS, t.TempDir() }},
		{"Mem", func(t *testing.T) (vfs.FS, string) { return vfs.NewMem(), "root" }},
		{"faultio.MemFS", func(t *testing.T) (vfs.FS, string) { return faultio.NewMemFS(), "root" }},
	}
	rows := []struct {
		name string
		run  func(t *testing.T, fsys vfs.FS, dir string)
	}{
		{"create-excl-existing", func(t *testing.T, fsys vfs.FS, dir string) {
			name := filepath.Join(dir, "f")
			writeFile(t, fsys, name, "x")
			_, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
			if !errors.Is(err, fs.ErrExist) {
				t.Fatalf("O_CREATE|O_EXCL on an existing file: %v, want fs.ErrExist", err)
			}
		}},
		{"trunc-empties", func(t *testing.T, fsys vfs.FS, dir string) {
			name := filepath.Join(dir, "f")
			writeFile(t, fsys, name, "hello")
			f, err := fsys.OpenFile(name, os.O_RDWR|os.O_TRUNC, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			if got := readFile(t, fsys, name); got != "" {
				t.Fatalf("after O_TRUNC the file holds %q", got)
			}
		}},
		{"short-readat-eof", func(t *testing.T, fsys vfs.FS, dir string) {
			name := filepath.Join(dir, "f")
			writeFile(t, fsys, name, "hello")
			f, err := fsys.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 8)
			n, err := f.ReadAt(buf, 2)
			if n != 3 || err != io.EOF || string(buf[:n]) != "llo" {
				t.Fatalf("ReadAt past EOF = %d, %v (%q), want 3, io.EOF", n, err, buf[:n])
			}
		}},
		{"sequential-write", func(t *testing.T, fsys vfs.FS, dir string) {
			name := filepath.Join(dir, "f")
			f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []string{"ab", "cd", "e"} {
				if _, err := f.Write([]byte(s)); err != nil {
					t.Fatal(err)
				}
			}
			f.Close()
			if got := readFile(t, fsys, name); got != "abcde" {
				t.Fatalf("sequential writes left %q", got)
			}
		}},
		{"rename-over-existing", func(t *testing.T, fsys vfs.FS, dir string) {
			from, to := filepath.Join(dir, "new"), filepath.Join(dir, "old")
			writeFile(t, fsys, from, "new")
			writeFile(t, fsys, to, "old content")
			if err := fsys.Rename(from, to); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, fsys, to); got != "new" {
				t.Fatalf("renamed-over target holds %q", got)
			}
			if _, err := fsys.Stat(from); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rename source still there: %v", err)
			}
		}},
		{"remove-missing", func(t *testing.T, fsys vfs.FS, dir string) {
			if err := fsys.Remove(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Remove of a missing file: %v, want fs.ErrNotExist", err)
			}
		}},
		{"stat-size", func(t *testing.T, fsys vfs.FS, dir string) {
			name := filepath.Join(dir, "f")
			writeFile(t, fsys, name, "12345")
			st, err := fsys.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != 5 || st.IsDir() {
				t.Fatalf("Stat = size %d, dir %v; want 5, false", st.Size(), st.IsDir())
			}
		}},
		{"glob-sorted", func(t *testing.T, fsys vfs.FS, dir string) {
			for _, n := range []string{"c.fdc", "a.fdc", "b.fdc", "skip.txt"} {
				writeFile(t, fsys, filepath.Join(dir, n), n)
			}
			got, err := fsys.Glob(filepath.Join(dir, "*.fdc"))
			if err != nil {
				t.Fatal(err)
			}
			want := []string{filepath.Join(dir, "a.fdc"), filepath.Join(dir, "b.fdc"), filepath.Join(dir, "c.fdc")}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Glob = %v, want %v", got, want)
			}
		}},
		{"dir-sync", func(t *testing.T, fsys vfs.FS, dir string) {
			d, err := fsys.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Sync(); err != nil {
				t.Fatalf("Open(dir).Sync(): %v", err)
			}
		}},
	}
	for _, impl := range impls {
		for _, row := range rows {
			t.Run(impl.name+"/"+row.name, func(t *testing.T) {
				fsys, dir := impl.new(t)
				if err := fsys.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				row.run(t, fsys, dir)
			})
		}
	}
}

// gatedFile is a File whose Sync blocks until gate is closed and then
// returns err.
type gatedFile struct {
	vfs.File
	gate chan struct{}
	err  error
}

func (f gatedFile) Sync() error {
	<-f.gate
	return f.err
}

// unordered hides its FS's sync-order declaration, as a wrapper that
// does not forward it would.
type unordered struct{ vfs.FS }

// TestStartSync: a filesystem that declares its syncs ordered (Mem,
// faultio.MemFS, and wrappers forwarding them) runs the fsync inline,
// so it has returned by the time StartSync does; any other runs it on a
// goroutine, and only Wait reports its result.
func TestStartSync(t *testing.T) {
	for _, fsys := range []vfs.FS{vfs.NewMem(), faultio.NewMemFS()} {
		if !vfs.SyncsOrdered(fsys) {
			t.Fatalf("%T does not declare its syncs ordered", fsys)
		}
	}
	if vfs.SyncsOrdered(vfs.OS) || vfs.SyncsOrdered(unordered{vfs.NewMem()}) {
		t.Fatal("an unordered filesystem declares its syncs ordered")
	}

	fail := errors.New("sync failed")
	gate := make(chan struct{})
	close(gate)
	p := vfs.StartSync(vfs.NewMem(), gatedFile{gate: gate, err: fail})
	if !p.Failed() || !errors.Is(p.Wait(), fail) {
		t.Fatal("ordered StartSync did not run the failing fsync inline")
	}

	gate = make(chan struct{})
	p = vfs.StartSync(unordered{vfs.NewMem()}, gatedFile{gate: gate, err: fail})
	if p.Failed() {
		t.Fatal("a blocked background fsync reports failure")
	}
	close(gate)
	if !errors.Is(p.Wait(), fail) || !p.Failed() {
		t.Fatal("Wait did not report the background fsync's failure")
	}
	if vfs.StartSync(vfs.OS, gatedFile{gate: gate}).Wait() != nil {
		t.Fatal("a successful background fsync reported an error")
	}
}
