package freqdedup_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"freqdedup"
)

// ExampleCreateRepository shows the repository lifecycle end to end:
// create a file-backed repository, back up two versions of the same data,
// list the snapshots, expire one, garbage-collect, and restore — all
// through the one front door.
func ExampleCreateRepository() {
	dir, err := os.MkdirTemp("", "freqdedup-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	var key freqdedup.Key
	copy(key[:], "the user's own secret key......")

	repo, err := freqdedup.CreateRepository(dir, freqdedup.WithRepositoryKey(key))
	if err != nil {
		log.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()

	// Two backups of the same primary data with a small edit: most chunks
	// deduplicate.
	v1 := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 40000)
	v2 := append(append([]byte(nil), v1...), []byte("one new tail block")...)
	if _, err := repo.Backup(ctx, "monday", bytes.NewReader(v1)); err != nil {
		log.Fatal(err)
	}
	if _, err := repo.Backup(ctx, "tuesday", bytes.NewReader(v2)); err != nil {
		log.Fatal(err)
	}

	for _, s := range repo.Snapshots() {
		fmt.Printf("%s: %d bytes\n", s.Name, s.LogicalBytes)
	}

	// Expire monday; GC reclaims only chunks no snapshot references.
	if err := repo.Delete(ctx, "monday"); err != nil {
		log.Fatal(err)
	}
	if _, err := repo.GC(ctx); err != nil {
		log.Fatal(err)
	}

	var out bytes.Buffer
	if err := repo.Restore(ctx, "tuesday", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tuesday restored:", bytes.Equal(out.Bytes(), v2))
	// Output:
	// monday: 1800000 bytes
	// tuesday: 1800018 bytes
	// tuesday restored: true
}

// ExampleOpenRepository shows what the durable snapshot catalog buys: a
// repository reopened in a fresh process still knows every snapshot and
// its chunk references, so Verify passes and GC reclaims nothing that is
// still referenced.
func ExampleOpenRepository() {
	dir, err := os.MkdirTemp("", "freqdedup-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	repo, err := freqdedup.CreateRepository(dir)
	if err != nil {
		log.Fatal(err)
	}
	data := bytes.Repeat([]byte("backup data, day one. "), 50000)
	if _, err := repo.Backup(ctx, "day-1", bytes.NewReader(data)); err != nil {
		log.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		log.Fatal(err)
	}

	// A new process reopens the repository.
	reopened, err := freqdedup.OpenRepository(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Println("snapshots after reopen:", len(reopened.Snapshots()))
	if err := reopened.Verify(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verify: ok")
	gc, err := reopened.GC(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chunks reclaimed by GC:", gc.ChunksReclaimed)
	var out bytes.Buffer
	if err := reopened.Restore(ctx, "day-1", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Println("day-1 restored:", bytes.Equal(out.Bytes(), data))
	// Output:
	// snapshots after reopen: 1
	// verify: ok
	// chunks reclaimed by GC: 0
	// day-1 restored: true
}

// ExampleRepository_Backup demonstrates cancellation: every data-path
// method takes a context, and a cancelled backup returns ctx.Err()
// without recording a snapshot.
func ExampleRepository_Backup() {
	repo, err := freqdedup.CreateRepository("") // in-memory repository
	if err != nil {
		log.Fatal(err)
	}
	defer repo.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the backup starts
	_, err = repo.Backup(ctx, "doomed", bytes.NewReader([]byte("data")))
	fmt.Println("cancelled backup error:", err)
	fmt.Println("snapshots recorded:", len(repo.Snapshots()))
	// Output:
	// cancelled backup error: context canceled
	// snapshots recorded: 0
}

// ExampleNewLocalityAttack generates the synthetic backup chain (the
// paper's Lillibridge-style dataset), encrypts the latest backup with
// baseline MLE, and runs all three inference attacks against it with each
// prior backup as the auxiliary information — a compact Figure 5(b). The
// locality-based attack exploits chunk co-occurrence to infer far more
// chunks than classical frequency analysis; the advanced variant adds
// chunk-size classification on top.
func ExampleNewLocalityAttack() {
	dataset, err := freqdedup.GenerateWorkload("synthetic", freqdedup.WorkloadConfig{Seed: 1, Backups: 7})
	if err != nil {
		log.Fatal(err)
	}

	stats := dataset.Stats()
	fmt.Printf("synthetic dataset: %d backups, %d chunks (%d unique), %.1fx dedup\n\n",
		len(dataset.Backups), stats.LogicalChunks, stats.UniqueChunks, stats.Ratio())

	target := dataset.Backups[len(dataset.Backups)-1]
	enc := freqdedup.EncryptMLE(target)
	fmt.Printf("target: backup %s (%d unique ciphertext chunks)\n\n",
		target.Label, enc.Backup.UniqueCount())

	// Each attack consumes replayable chunk sources (here in-memory
	// backups; a repository's .fdt trace logs work identically).
	cfg := freqdedup.DefaultAttackConfig()
	run := func(a freqdedup.Attack, aux *freqdedup.Backup) float64 {
		res, err := a.Run(
			freqdedup.BackupAttackSource(enc.Backup),
			freqdedup.BackupAttackSource(aux),
			freqdedup.AttackParams{})
		if err != nil {
			log.Fatal(err)
		}
		return res.InferenceRate(enc.Truth)
	}

	fmt.Printf("%-10s | %-8s | %-9s | %s\n", "auxiliary", "basic", "locality", "advanced")
	fmt.Println("-----------+----------+-----------+----------")
	for _, aux := range dataset.Backups[:len(dataset.Backups)-1] {
		basic := run(freqdedup.NewBasicAttack(cfg), aux)
		locality := run(freqdedup.NewLocalityAttack(cfg), aux)
		advanced := run(freqdedup.NewAdvancedAttack(cfg), aux)
		fmt.Printf("%-10s | %7.3f%% | %8.2f%% | %8.2f%%\n",
			aux.Label, basic*100, locality*100, advanced*100)
	}
	// Output:
	// synthetic dataset: 7 backups, 48409 chunks (7112 unique), 6.8x dedup
	//
	// target: backup 6 (7064 unique ciphertext chunks)
	//
	// auxiliary  | basic    | locality  | advanced
	// -----------+----------+-----------+----------
	// 0          |   0.057% |    29.61% |    59.31%
	// 1          |   0.113% |     0.01% |    56.74%
	// 2          |   0.113% |     0.01% |    58.62%
	// 3          |   0.099% |     0.01% |    59.92%
	// 4          |   0.099% |    54.37% |    65.43%
	// 5          |   0.127% |    71.84% |    76.88%
}

// ExampleEncryptWithScheme shows how MinHash encryption and scrambling
// defeat the advanced locality-based attack while keeping deduplication
// effective — a compact Figures 10 and 11 on the FSL-like dataset. The
// combined scheme suppresses the attack by orders of magnitude while
// giving up only a small slice of deduplication saving.
func ExampleEncryptWithScheme() {
	dataset, err := freqdedup.GenerateWorkload("fsl", freqdedup.WorkloadConfig{Seed: 2, TotalBytes: 6 * 8 << 20})
	if err != nil {
		log.Fatal(err)
	}

	n := len(dataset.Backups)
	aux := dataset.Backups[n-2]
	target := dataset.Backups[n-1]

	const leakage = 0.002 // the paper's strongest known-plaintext setting

	fmt.Printf("FSL-like dataset, aux = %s, target = %s, leakage = %.1f%%\n\n",
		aux.Label, target.Label, leakage*100)
	fmt.Printf("%-22s | %-14s\n", "scheme", "inference rate")
	fmt.Println("-----------------------+---------------")

	for _, scheme := range []freqdedup.DefenseScheme{
		freqdedup.SchemeMLE, freqdedup.SchemeMinHash, freqdedup.SchemeCombined,
	} {
		enc, err := freqdedup.EncryptWithScheme(target, scheme, 7)
		if err != nil {
			log.Fatal(err)
		}
		leaked := freqdedup.SampleLeaked(enc.Backup, enc.Truth, leakage, 42)
		advanced := freqdedup.NewAdvancedAttack(freqdedup.AttackConfig{
			U: 1, V: 15, W: 500000,
			Mode:   freqdedup.KnownPlaintext,
			Leaked: leaked,
		})
		res, err := advanced.Run(freqdedup.BackupAttackSource(enc.Backup),
			freqdedup.BackupAttackSource(aux), freqdedup.AttackParams{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s | %12.3f%%\n", scheme, res.InferenceRate(enc.Truth)*100)
	}

	fmt.Println("\nStorage saving after all backups:")
	for _, scheme := range []freqdedup.DefenseScheme{
		freqdedup.SchemeMLE, freqdedup.SchemeCombined,
	} {
		savings, err := freqdedup.StorageSavings(dataset, scheme, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %.2f%%\n", scheme, savings[len(savings)-1]*100)
	}
	// Output:
	// FSL-like dataset, aux = 3, target = 4, leakage = 0.2%
	//
	// scheme                 | inference rate
	// -----------------------+---------------
	// MLE                    |       86.754%
	// MinHash                |       59.979%
	// Combined               |        0.506%
	//
	// Storage saving after all backups:
	//   MLE        76.85%
	//   Combined   70.69%
}
