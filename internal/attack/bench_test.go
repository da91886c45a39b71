package attack

import (
	"sync"
	"testing"

	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
)

var (
	benchOnce sync.Once
	benchC    *trace.Backup
	benchM    *trace.Backup
)

// benchStreams generates one locality-rich trace pair shared by every
// benchmark in the package.
func benchStreams() (c, m *trace.Backup) {
	benchOnce.Do(func() {
		d, err := workload.Generate("synthetic", workload.Config{Seed: 1, Backups: 3, TotalBytes: 24 << 20})
		if err != nil {
			panic(err)
		}
		benchC = d.Backups[len(d.Backups)-1]
		benchM = d.Backups[0]
	})
	return benchC, benchM
}

// BenchmarkAttackStreaming measures the two-pass counting core and the
// ranked neighbour rows built from it — the throughput floor of every
// locality attack, with the ciphertext and plaintext streams counted
// concurrently. bytes/op is the logical trace volume counted per run.
func BenchmarkAttackStreaming(b *testing.B) {
	c, m := benchStreams()
	b.SetBytes(int64(c.LogicalSize() + m.LogicalSize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := buildTablePair(BackupSource(c), BackupSource(m), &rowOrder{posTies: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackStreamingLocality times the full streaming locality
// attack (counting + walk).
func BenchmarkAttackStreamingLocality(b *testing.B) {
	c, m := benchStreams()
	b.SetBytes(int64(c.LogicalSize() + m.LogicalSize()))
	b.ReportAllocs()
	a := NewLocality(DefaultConfig())
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(BackupSource(c), BackupSource(m), Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
