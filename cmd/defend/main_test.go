package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"freqdedup"
)

// TestMain runs the command itself when the test binary is executed
// under the name "defend" (see runDefend), and the tests otherwise.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "defend" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDefend executes the test binary as `defend args...` through a
// symlink of that name and returns its combined output and exit status.
func runDefend(t *testing.T, args ...string) (string, int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "defend")
	if err := os.Symlink(self, bin); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("run defend %v: %v", args, err)
		return "", 0
	}
}

func TestUnknownFigExits2(t *testing.T) {
	out, code := runDefend(t, "-fig", "5")
	if code != 2 {
		t.Fatalf("defend -fig 5: exit %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown -fig") || !strings.Contains(out, "restore") {
		t.Fatalf("defend -fig 5 does not list the accepted names:\n%s", out)
	}
}

// TestMetadataFiguresGolden holds the §7.4 metadata-access figures and the
// restore-locality table to their recorded output, byte for byte. The
// goldens were recorded when the DDFS simulator still packed through
// container.Store; they are a behaviour contract, never re-recorded.
func TestMetadataFiguresGolden(t *testing.T) {
	for _, fig := range []string{"13", "14", "restore"} {
		want, err := os.ReadFile(filepath.Join("testdata", "fig-"+fig+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		out, code := runDefend(t, "-fig", fig)
		if code != 0 {
			t.Fatalf("defend -fig %s: exit %d; output:\n%s", fig, code, out)
		}
		if out != string(want) {
			t.Errorf("defend -fig %s differs from testdata/fig-%s.golden:\n%s", fig, fig, out)
		}
	}
}

// TestFsckRepairsCorruptShard flips bytes in the middle of a sealed
// shard: fsck must quarantine the damaged container, report which
// snapshots lost what and exit 1, and a second run must quarantine
// nothing new and report the same damage.
func TestFsckRepairsCorruptShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := freqdedup.CreateRepository(dir,
		freqdedup.WithShards(2), freqdedup.WithContainerBytes(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, snap := range []struct {
		name string
		size int
	}{{"mon", 768 << 10}, {"tue", 512 << 10}, {"wed", 256 << 10}} {
		data := make([]byte, snap.size)
		rng.Read(data)
		if _, err := repo.Backup(context.Background(), snap.name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	shard := filepath.Join(dir, "shard-0000.fdc")
	f, err := os.OpenFile(shard, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 16), st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, code := runDefend(t, "fsck", "-repo", dir)
	if code != 1 {
		t.Fatalf("fsck of a corrupt shard: exit %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{"quarantined", "degraded:", "repaired and consistent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fsck output lacks %q:\n%s", want, out)
		}
	}

	again, _ := runDefend(t, "fsck", "-repo", dir)
	if strings.Contains(again, "quarantined") {
		t.Fatalf("second fsck quarantined again:\n%s", again)
	}
	if got, want := damageLines(again), damageLines(out); got != want {
		t.Fatalf("second fsck reports different damage:\n%s\nfirst run:\n%s", got, want)
	}
}

// damageLines returns fsck's per-snapshot damage report.
func damageLines(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "snapshot ") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
