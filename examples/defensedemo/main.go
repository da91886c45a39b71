// Defensedemo: show how MinHash encryption and scrambling defeat the
// advanced locality-based attack while keeping deduplication effective —
// a compact version of Figures 10 and 11 on the FSL-like dataset.
package main

import (
	"fmt"
	"log"

	"freqdedup"
)

func main() {
	params := freqdedup.DefaultFSLParams()
	params.PerUserBytes = 8 << 20 // keep the demo quick
	dataset := freqdedup.GenerateFSL(params)

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
	fmt.Println("\nThe combined scheme suppresses the attack by orders of magnitude")
	fmt.Println("while giving up only a small slice of deduplication saving.")
}
