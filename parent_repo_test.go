package freqdedup

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// parentGenerations returns g0, g1 and g2 for the dedup-before-encrypt
// tests: g1 edits the middle of g0, and g2 keeps g1's edit and adds one
// of its own, so g2 repeats chunks that exist only in g1.
func parentGenerations() (g0, g1, g2 []byte) {
	g0 = repoData(41, 2<<20)
	g1 = repoMutate(g0, 42)
	g2 = append([]byte(nil), g1...)
	copy(g2[len(g2)/4:], repoData(43, 32<<10))
	return g0, g1, g2
}

// snapshotRecipe opens the named snapshot's recipe.
func snapshotRecipe(t *testing.T, r *Repository, name string) *mle.Recipe {
	t.Helper()
	rec, ok := r.catalog.Get(name)
	if !ok {
		t.Fatalf("no snapshot %q", name)
	}
	recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
	if err != nil {
		t.Fatal(err)
	}
	return recipe
}

// checkParentTable asserts that name's backup would get want's recipe as
// its parent, with its sums unless the repository is convergent, and would
// predict its cuts from it only if predict.
func checkParentTable(t *testing.T, r *Repository, name, want string, predict bool) {
	t.Helper()
	got, sums, pred := r.parent(name)
	if got == nil {
		t.Fatalf("backup %q gets no parent, want %q", name, want)
	}
	if !reflect.DeepEqual(got.Entries, snapshotRecipe(t, r, want).Entries) {
		t.Fatalf("backup %q: parent is not %q's recipe", name, want)
	}
	if convergent := r.cfg.Encryption == 0 || r.cfg.Encryption == EncConvergent; convergent != (sums == nil) ||
		sums != nil && len(sums) != len(got.Entries) {
		t.Fatalf("backup %q: %d sums for %d entries", name, len(sums), len(got.Entries))
	}
	if pred != predict {
		t.Fatalf("backup %q: predicts from %q: %v, want %v", name, want, pred, predict)
	}
}

// TestBackupParentAfterGC is the GC-between-parent-and-child case of
// dedup before encrypt: g1 is deleted and collected, so g2's table comes
// from g0, and g2's chunks that only g1 held are encrypted and stored
// again. g2 must restore byte-identically and Verify must pass — directly
// and after a close and reopen, where the table comes from the replayed
// catalog.
func TestBackupParentAfterGC(t *testing.T) {
	g0, g1, g2 := parentGenerations()
	for _, reopen := range []bool{false, true} {
		name := "live"
		if reopen {
			name = "reopened"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			var key Key
			copy(key[:], "parent table test key")
			r, err := CreateRepository(dir, WithRepositoryKey(key))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { r.Close() }()
			mustBackup(t, r, "g0", g0)
			checkParentTable(t, r, "g1", "g0", true)
			mustBackup(t, r, "g1", g1)
			if err := r.Delete(ctx, "g1"); err != nil {
				t.Fatal(err)
			}
			gc, err := r.GC(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if gc.ChunksReclaimed == 0 {
				t.Fatal("GC reclaimed nothing: g1 held no chunks of its own")
			}
			if reopen {
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if r, err = OpenRepository(dir, WithRepositoryKey(key)); err != nil {
					t.Fatal(err)
				}
			}
			checkParentTable(t, r, "g2", "g0", !reopen)
			mustBackup(t, r, "g2", g2)
			mustRestore(t, r, "g2", g2)
			mustRestore(t, r, "g0", g0)
			if err := r.Verify(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParentTableChoice pins which snapshot a backup's table comes from:
// the newest in the backup's own tenant namespace. A MinHash repository's
// table needs the sums of its parent's chunks, which only the instance
// that backed the parent up holds: it gets one from a snapshot it backed
// up, with the same recipe as a backup without a table, and none after a
// reopen.
func TestParentTableChoice(t *testing.T) {
	g0, g1, g2 := parentGenerations()
	r, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, _, _ := r.parent("a"); p != nil {
		t.Fatal("an empty repository gave a parent table")
	}
	mustBackup(t, r, "a", g0)
	mustBackup(t, r, "b", g1)
	mustBackup(t, r, "t/a", g2)
	checkParentTable(t, r, "c", "b", true)
	checkParentTable(t, r, "t/b", "t/a", true)
	if p, _, _ := r.parent("u/a"); p != nil {
		t.Fatal("a namespace without snapshots got another namespace's table")
	}

	dir := t.TempDir()
	minhash := []RepositoryOption{WithEncryption(EncMinHash), WithKeyDeriver(NewLocalDeriver([]byte("k")))}
	m, err := CreateRepository(dir, minhash...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { m.Close() }()
	mustBackup(t, m, "a", g0)
	checkParentTable(t, m, "b", "a", true)
	mustBackup(t, m, "b", g1)
	plain, err := CreateRepository("", minhash...)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	mustBackup(t, plain, "b", g1)
	if !reflect.DeepEqual(snapshotRecipe(t, m, "b"), snapshotRecipe(t, plain, "b")) {
		t.Fatal("a MinHash recipe differs from a backup without a parent")
	}
	mustRestore(t, m, "b", g1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err = OpenRepository(dir, minhash...); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := m.parent("c"); p != nil {
		t.Fatal("a reopened MinHash repository gave a parent table")
	}
}

// TestParentSumsStayInMemory is the canary for a MinHash repository's
// table. The sums it holds are the chunks' plaintext SHA-256s, their
// convergent keys, which the defence exists to hide. After MinHash +
// scrambling backups that used a table, no file of the repository and no
// observed upload window may hold one, and every file but the catalog
// (whose records carry times and sealing nonces) must equal a repository
// that backed the same generations up without a table. The sums are held
// for one snapshot per tenant, the newest this instance backed up, and
// dropped with it.
func TestParentSumsStayInMemory(t *testing.T) {
	g0, g1, g2 := parentGenerations()
	var key Key
	copy(key[:], "parent sums test key")
	var observed []trace.ChunkRef
	opts := func(obs UploadObserver) []RepositoryOption {
		return []RepositoryOption{WithRepositoryKey(key), WithEncryption(EncMinHash),
			WithKeyDeriver(NewLocalDeriver([]byte("sums"))), WithScramble(9), WithUploadObserver(obs),
			WithIndexTuning(IndexTuning{MemtableEntries: 64})}
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	table, err := CreateRepository(dirs[0], opts(observerFunc(func(refs []trace.ChunkRef) error {
		observed = append(observed, refs...)
		return nil
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	plain, err := CreateRepository(dirs[1], opts(nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sums := map[mle.Key]bool{}
	for g, data := range [][]byte{g0, g1, g2} {
		name := fmt.Sprintf("g%d", g)
		if p, s, _ := table.parent(name); g > 0 && (p == nil || s == nil) {
			t.Fatalf("%s gets no table", name)
		}
		mustBackup(t, table, name, data)
		held, entries := table.sums[""].sums, snapshotRecipe(t, table, name).Entries
		if len(held) != len(entries) {
			t.Fatalf("%s: %d sums held for %d entries", name, len(held), len(entries))
		}
		off := 0
		for i, e := range entries {
			if held[i] != mle.ConvergentKey(data[off:off+int(e.Size)]) {
				t.Fatalf("%s: sum %d is not its chunk's SHA-256", name, i)
			}
			sums[held[i]] = true
			off += int(e.Size)
		}
		plain.ownMu.Lock()
		clear(plain.sums)
		plain.ownMu.Unlock()
		mustBackup(t, plain, name, data)
	}
	for s := range sums {
		if !holdsSum(append([]byte("planted "), s[:]...), sums) {
			t.Fatal("the scan misses a planted sum")
		}
		break
	}
	for _, ref := range observed {
		for s := range sums {
			if bytes.Equal(ref.FP[:], s[:len(ref.FP)]) {
				t.Fatal("an observed upload carries a plaintext fingerprint")
			}
		}
	}
	for _, r := range []*Repository{table, plain} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files := [2]map[string][]byte{readTree(t, dirs[0]), readTree(t, dirs[1])}
	for name, b := range files[0] {
		if holdsSum(b, sums) {
			t.Fatalf("%s holds a chunk's plaintext SHA-256", name)
		}
		if name != "catalog.fdr" && !bytes.Equal(b, files[1][name]) {
			t.Fatalf("%s differs from the repository without a table", name)
		}
	}
	if len(files[0]) != len(files[1]) {
		t.Fatalf("%d files, %d without a table", len(files[0]), len(files[1]))
	}

	r, err := CreateRepository("", opts(nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	held := func() map[string]string {
		out := map[string]string{}
		for tenant, s := range r.sums {
			out[tenant] = s.name
		}
		return out
	}
	mustBackup(t, r, "a", g0)
	mustBackup(t, r, "b", g1)
	mustBackup(t, r, "t/a", g2)
	if got, want := held(), map[string]string{"": "b", "t": "t/a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sums held for %v, want %v", got, want)
	}
	for _, name := range []string{"b", "t/a"} {
		if err := r.Delete(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(); len(got) != 0 {
		t.Fatalf("sums held for %v after their snapshots were deleted", got)
	}
	if p, _, _ := r.parent("c"); p != nil {
		t.Fatal("a parent without sums gave a table")
	}
}

// holdsSum reports whether b holds any of sums as 32 consecutive bytes.
func holdsSum(b []byte, sums map[mle.Key]bool) bool {
	for i := 0; i+len(mle.Key{}) <= len(b); i++ {
		if sums[mle.Key(b[i:i+len(mle.Key{})])] {
			return true
		}
	}
	return false
}

// readTree reads every file under dir, by its slash-separated path
// relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParentPredictsOnlyOwnChunking is the gate on predicted cuts: a
// recipe does not say how it was chunked, so a Repository predicts only
// from a parent it backed up itself. g0 is backed up with a 4 KiB Min;
// reopened with the default 2 KiB Min, g1's parent is g0 and is not
// predicted from, and g1's recipe equals that of a backup without a
// parent. g2's parent is g1, which this instance backed up, and it is
// predicted from, with the same recipe as without it.
func TestParentPredictsOnlyOwnChunking(t *testing.T) {
	g0, g1, g2 := parentGenerations()
	dir := t.TempDir()
	var key Key
	copy(key[:], "parent gate test key")
	r, err := CreateRepository(dir, WithRepositoryKey(key), WithChunking(ChunkingParams{Min: 4 << 10, Avg: 8 << 10, Max: 16 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	mustBackup(t, r, "g0", g0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err = OpenRepository(dir, WithRepositoryKey(key)); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkParentTable(t, r, "g1", "g0", false)
	mustBackup(t, r, "g1", g1)
	checkParentTable(t, r, "g2", "g1", true)
	mustBackup(t, r, "g2", g2)
	for i, data := range [][]byte{g1, g2} {
		name := fmt.Sprintf("g%d", i+1)
		plain, err := CreateRepository("")
		if err != nil {
			t.Fatal(err)
		}
		mustBackup(t, plain, name, data)
		if !reflect.DeepEqual(snapshotRecipe(t, r, name), snapshotRecipe(t, plain, name)) {
			t.Fatalf("%s: recipe differs from a backup without a parent", name)
		}
		plain.Close()
		mustRestore(t, r, name, data)
	}
	if err := r.Delete(context.Background(), "g2"); err != nil {
		t.Fatal(err)
	}
	checkParentTable(t, r, "g3", "g1", true)
}
