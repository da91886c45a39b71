package freqdedup

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"freqdedup/internal/mle"
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
// its parent, and would predict its cuts from it only if predict.
func checkParentTable(t *testing.T, r *Repository, name, want string, predict bool) {
	t.Helper()
	got, pred := r.parent(name)
	if got == nil {
		t.Fatalf("backup %q gets no parent, want %q", name, want)
	}
	if !reflect.DeepEqual(got.Entries, snapshotRecipe(t, r, want).Entries) {
		t.Fatalf("backup %q: parent is not %q's recipe", name, want)
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
// the newest in the backup's own tenant namespace, and none at all for a
// repository whose encryption is not convergent.
func TestParentTableChoice(t *testing.T) {
	g0, g1, g2 := parentGenerations()
	r, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, _ := r.parent("a"); p != nil {
		t.Fatal("an empty repository gave a parent table")
	}
	mustBackup(t, r, "a", g0)
	mustBackup(t, r, "b", g1)
	mustBackup(t, r, "t/a", g2)
	checkParentTable(t, r, "c", "b", true)
	checkParentTable(t, r, "t/b", "t/a", true)
	if p, _ := r.parent("u/a"); p != nil {
		t.Fatal("a namespace without snapshots got another namespace's table")
	}

	m, err := CreateRepository("", WithEncryption(EncMinHash), WithKeyDeriver(NewLocalDeriver([]byte("k"))))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mustBackup(t, m, "a", g0)
	if p, _ := m.parent("b"); p != nil {
		t.Fatal("a MinHash repository gave a parent table")
	}
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
