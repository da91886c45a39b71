// Ddfsdemo: replay an FSL-like backup series through the DDFS-like
// deduplication prototype (Section 7.4) and watch the metadata flow — the
// Bloom filter, the fingerprint cache with container prefetching, and the
// on-disk index — then measure restore locality under the combined
// defense (the Section 6.2 performance claim).
package main

import (
	"fmt"
	"log"
	"os"

	"freqdedup"
	"freqdedup/internal/ddfs"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/trace"
)

func main() {
	// Six users' homes of 8 MiB each keep the demo quick.
	dataset, err := freqdedup.GenerateWorkload("fsl", freqdedup.WorkloadConfig{Seed: 2, TotalBytes: 6 * 8 << 20})
	if err != nil {
		log.Fatal(err)
	}

	var expected uint64
	for _, b := range dataset.Backups {
		expected += uint64(len(b.Chunks))
	}
	sys := ddfs.New(ddfs.Config{
		ContainerBytes:       4 << 20,
		ExpectedFingerprints: expected,
		BloomFPP:             0.01,
	})

	fmt.Println("storing MLE-encrypted backups through the DDFS-like pipeline:")
	fmt.Printf("%-8s | %-10s | %-10s | %-12s\n", "backup", "update", "index", "loading")
	for i, b := range dataset.Backups {
		enc, err := defense.Encrypt(b, defense.SchemeMLE, int64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		st := sys.StoreBackup(enc.Backup)
		fmt.Printf("%-8s | %7.2f MB | %7.3f MB | %9.2f MB\n", b.Label,
			mb(st.UpdateBytes), mb(st.IndexBytes), mb(st.LoadingBytes))
	}
	fmt.Printf("\n%d unique chunks in %d containers; cache hit rate %.1f%%\n",
		sys.UniqueChunks(), sys.Containers(), sys.CacheHitRate()*100)

	// Restore locality for the latest backup.
	last := dataset.Backups[len(dataset.Backups)-1]
	enc, err := defense.Encrypt(last, defense.SchemeMLE, int64(len(dataset.Backups)))
	if err != nil {
		log.Fatal(err)
	}
	spread := sys.ContainerSpread(&trace.Backup{Chunks: enc.RecipeOrder}, 4)
	fmt.Printf("restoring %s: %d chunks span %d containers, %d reads with a 4-container cache\n",
		last.Label, spread.Chunks, spread.DistinctContainers, spread.ReadsWithCache)

	// The full Section 6.2 comparison (MLE vs combined defense).
	fig, err := eval.RestoreLocality(eval.Datasets{
		FSL: dataset, Synthetic: dataset, VM: dataset,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fig.Render(os.Stdout)
}

func mb(v uint64) float64 { return float64(v) / (1 << 20) }
