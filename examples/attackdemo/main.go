// Attackdemo: generate the synthetic backup chain (the paper's
// Lillibridge-style dataset), encrypt the latest backup with baseline MLE,
// and run all three inference attacks against it using each prior backup
// as the auxiliary information — a compact version of Figure 5(b).
package main

import (
	"fmt"

	"freqdedup"
)

func main() {
	params := freqdedup.DefaultSyntheticParams()
	params.Snapshots = 6 // keep the demo quick
	dataset := freqdedup.GenerateSynthetic(params)

	stats := dataset.Stats()
	fmt.Printf("synthetic dataset: %d backups, %d chunks (%d unique), %.1fx dedup\n\n",
		len(dataset.Backups), stats.LogicalChunks, stats.UniqueChunks, stats.Ratio())

	target := dataset.Backups[len(dataset.Backups)-1]
	enc := freqdedup.EncryptMLE(target)
	fmt.Printf("target: backup %s (%d unique ciphertext chunks)\n\n",
		target.Label, enc.Backup.UniqueCount())

	// The streaming attack engine: each attack consumes replayable
	// chunk sources (here in-memory backups; a repository's .fdt trace
	// logs work identically) through sharded parallel counters.
	cfg := freqdedup.DefaultAttackConfig()
	run := func(a freqdedup.Attack, aux *freqdedup.Backup) float64 {
		res, err := a.Run(
			freqdedup.BackupAttackSource(enc.Backup),
			freqdedup.BackupAttackSource(aux),
			freqdedup.AttackParams{})
		if err != nil {
			panic(err)
		}
		return res.InferenceRate(enc.Truth)
	}

	fmt.Printf("%-10s | %-8s | %-9s | %-9s\n", "auxiliary", "basic", "locality", "advanced")
	fmt.Println("-----------+----------+-----------+----------")
	for _, aux := range dataset.Backups[:len(dataset.Backups)-1] {
		basic := run(freqdedup.NewBasicAttack(cfg), aux)
		locality := run(freqdedup.NewLocalityAttack(cfg), aux)
		advanced := run(freqdedup.NewAdvancedAttack(cfg), aux)
		fmt.Printf("%-10s | %7.3f%% | %8.2f%% | %8.2f%%\n",
			aux.Label, basic*100, locality*100, advanced*100)
	}
	fmt.Println("\nThe locality-based attack exploits chunk co-occurrence to infer")
	fmt.Println("far more chunks than classical frequency analysis; the advanced")
	fmt.Println("variant adds chunk-size classification on top.")
}
