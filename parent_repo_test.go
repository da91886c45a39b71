package freqdedup

import (
	"context"
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

// checkParentTable asserts that the table name's backup would get comes
// from want's recipe, and that it names only chunks the store holds.
func checkParentTable(t *testing.T, r *Repository, name, want string) {
	t.Helper()
	rec, ok := r.catalog.Get(want)
	if !ok {
		t.Fatalf("no snapshot %q", want)
	}
	recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
	if err != nil {
		t.Fatal(err)
	}
	table := r.parentTable(name)
	if len(table) == 0 {
		t.Fatalf("backup %q gets no parent table, want %q's", name, want)
	}
	for _, e := range recipe.Entries {
		if got, ok := table[e.Key]; !ok || got != e {
			t.Fatalf("backup %q: parent table is not %q's recipe", name, want)
		}
	}
	for _, e := range table {
		if !r.store.Contains(e.Fingerprint) {
			t.Fatalf("backup %q: parent table names chunk %v the store lost", name, e.Fingerprint)
		}
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
			checkParentTable(t, r, "g1", "g0")
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
			checkParentTable(t, r, "g2", "g0")
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
	if r.parentTable("a") != nil {
		t.Fatal("an empty repository gave a parent table")
	}
	mustBackup(t, r, "a", g0)
	mustBackup(t, r, "b", g1)
	mustBackup(t, r, "t/a", g2)
	checkParentTable(t, r, "c", "b")
	checkParentTable(t, r, "t/b", "t/a")
	if r.parentTable("u/a") != nil {
		t.Fatal("a namespace without snapshots got another namespace's table")
	}

	m, err := CreateRepository("", WithEncryption(EncMinHash), WithKeyDeriver(NewLocalDeriver([]byte("k"))))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mustBackup(t, m, "a", g0)
	if m.parentTable("b") != nil {
		t.Fatal("a MinHash repository gave a parent table")
	}
}
