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
	out, code := runDefend(t, "-fig", "99")
	if code != 2 {
		t.Fatalf("defend -fig 99: exit %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown -fig") || !strings.Contains(out, " 5,") || !strings.Contains(out, "restore") {
		t.Fatalf("defend -fig 99 does not list the accepted names:\n%s", out)
	}
}

// checkFigureGoldens runs `defend -fig name` for each name in parallel
// and holds its output to testdata/fig-<name>.golden byte for byte.
func checkFigureGoldens(t *testing.T, names ...string) {
	// eval.Generate scales the datasets by FREQDEDUP_SCALE.
	t.Setenv("FREQDEDUP_SCALE", "")
	for _, fig := range names {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
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
		})
	}
}

// TestMetadataFiguresGolden holds the §7.4 metadata-access figures and the
// restore-locality table to their recorded output, byte for byte. They
// are a behaviour contract of the DDFS simulator, re-recorded only when
// the datasets themselves changed: once, when FSL, synthetic and VM
// became workload compositions with a seed-salted fingerprint minter.
func TestMetadataFiguresGolden(t *testing.T) {
	checkFigureGoldens(t, "13", "14", "restore")
}

// TestAttackFiguresGolden holds the attack figures (Sections 3.3 and 5)
// to their recorded output, byte for byte; like the metadata goldens they
// move only with the datasets.
func TestAttackFiguresGolden(t *testing.T) {
	checkFigureGoldens(t, "1", "4", "5", "6", "7", "8", "9", "scaling")
}

// genTrace runs `defend gen -workload synthetic -tiny -seed 7` into dir
// and returns the written trace file's path.
func genTrace(t *testing.T, dir string) string {
	t.Helper()
	out, code := runDefend(t, "gen", "-workload", "synthetic", "-tiny", "-seed", "7", "-out", dir)
	if code != 0 {
		t.Fatalf("defend gen: exit %d; output:\n%s", code, out)
	}
	return filepath.Join(dir, "synthetic.fdt")
}

// TestGenDeterministic: one seed generates a byte-identical trace file,
// in another directory and when a re-run replaces the file in place.
func TestGenDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := genTrace(t, filepath.Join(dir, "a"))
	first, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{genTrace(t, filepath.Join(dir, "b")), genTrace(t, filepath.Join(dir, "a"))} {
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("%s differs from the first generation with the same seed", path)
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "a")); len(entries) != 1 {
		t.Fatalf("re-run left %d files in the output directory, want 1", len(entries))
	}
}

// TestAttackTrace runs one attack on a generated trace: only its rows
// are printed, and each run's pairs, walk stats and cost are in the
// notes.
func TestAttackTrace(t *testing.T) {
	path := genTrace(t, t.TempDir())
	out, code := runDefend(t, "attack", "-trace", path, "-attack", "locality")
	if code != 0 {
		t.Fatalf("defend attack -trace: exit %d; output:\n%s", code, out)
	}
	if strings.Contains(out, "basic (") || strings.Contains(out, "advanced (") {
		t.Fatalf("-attack locality printed other attacks' rows:\n%s", out)
	}
	if n := strings.Count(out, "note: locality ("); n != 6 {
		t.Fatalf("%d per-run notes, want 6 (2 modes x 3 schemes):\n%s", n, out)
	}
	for _, want := range []string{"dataset synthetic", "pairs, ", "seeds, ", "dropped by w", "inference rate ", "kchunks/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestCorruptTraceFails damages a generated trace — one byte flipped in
// the middle, the last 3 bytes cut off, one byte of the final record
// flipped — and then attacks it and draws a figure from it. Both must
// fail and name the corruption, never run on fewer or different backups.
func TestCorruptTraceFails(t *testing.T) {
	clean, err := os.ReadFile(genTrace(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"middle flip": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"cut 3":       func(b []byte) []byte { return b[:len(b)-3] },
		"last flip":   func(b []byte) []byte { b[len(b)-8] ^= 0x01; return b },
	} {
		path := filepath.Join(t.TempDir(), "synthetic.fdt")
		if err := os.WriteFile(path, damage(append([]byte(nil), clean...)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"attack", "-trace", path},
			{"-fig", "1", "-dataset", path},
		} {
			out, code := runDefend(t, args...)
			if code == 0 || !strings.Contains(out, "corrupt") {
				t.Errorf("%s: defend %v: exit %d; output:\n%s", name, args, code, out)
			}
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
