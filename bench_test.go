// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sections 5 and 7). Each benchmark regenerates the figure's
// data series on the laptop-scale datasets and reports headline values as
// custom metrics, so `go test -bench=. -benchmem` both times the
// reproduction and surfaces the reproduced numbers. The full rendered
// tables are printed by `go run ./cmd/attack -fig all` and
// `go run ./cmd/defend -fig all`.
package freqdedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"freqdedup/internal/attack"
	"freqdedup/internal/dedup"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// lastY returns the final value of the named series, or -1.
func lastY(figs []eval.Figure, figIdx int, series string) float64 {
	if figIdx >= len(figs) {
		return -1
	}
	for _, s := range figs[figIdx].Series {
		if s.Name == series {
			if len(s.Y) == 0 {
				return -1
			}
			return s.Y[len(s.Y)-1]
		}
	}
	return -1
}

func BenchmarkFig1FrequencyDistribution(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig1FrequencyDistribution(ds)
		b.ReportMetric(lastY(figs, 0, "frequency"), "fsl_max_freq")
		b.ReportMetric(lastY(figs, 1, "frequency"), "vm_max_freq")
	}
}

func BenchmarkFig4ParamSweep(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig4ParamSweep(ds)
		// Inference rate at the largest w (plateau) for FSL.
		b.ReportMetric(lastY(figs, 2, "FSL")*100, "fsl_rate_at_wmax_pct")
	}
}

func BenchmarkFig5VaryAux(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig5VaryAux(ds)
		// Most recent auxiliary backup, FSL: the paper's headline numbers
		// (basic ~0%, locality 23.2%, advanced 33.6%).
		b.ReportMetric(lastY(figs, 0, "Basic")*100, "fsl_basic_pct")
		b.ReportMetric(lastY(figs, 0, "Locality")*100, "fsl_locality_pct")
		b.ReportMetric(lastY(figs, 0, "Advanced")*100, "fsl_advanced_pct")
	}
}

func BenchmarkFig6VaryTarget(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig6VaryTarget(ds)
		b.ReportMetric(lastY(figs, 0, "Locality")*100, "fsl_locality_last_tgt_pct")
	}
}

func BenchmarkFig7SlidingWindow(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig7SlidingWindow(ds)
		b.ReportMetric(lastY(figs, 0, "s=1")*100, "fsl_s1_last_pct")
	}
}

func BenchmarkFig8KnownPlaintext(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := eval.Fig8KnownPlaintext(ds)
		b.ReportMetric(lastY([]eval.Figure{fig}, 0, "FSL (Locality)")*100, "fsl_locality_leak02_pct")
		b.ReportMetric(lastY([]eval.Figure{fig}, 0, "FSL (Advanced)")*100, "fsl_advanced_leak02_pct")
	}
}

func BenchmarkFig9KPVaryAux(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := eval.Fig9KPVaryAux(ds)
		b.ReportMetric(lastY(figs, 0, "Locality")*100, "fsl_locality_recent_aux_pct")
	}
}

func BenchmarkFig10Defense(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := eval.Fig10Defense(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(figs, 0, "MLE (undefended)")*100, "fsl_undefended_pct")
		b.ReportMetric(lastY(figs, 0, "MinHash only")*100, "fsl_minhash_pct")
		b.ReportMetric(lastY(figs, 0, "Combined")*100, "fsl_combined_pct")
	}
}

func BenchmarkFig11StorageSaving(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := eval.Fig11StorageSaving(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(figs, 0, "MLE")*100, "fsl_mle_saving_pct")
		b.ReportMetric(lastY(figs, 0, "Combined")*100, "fsl_combined_saving_pct")
	}
}

func BenchmarkFig13Metadata512MB(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := eval.Fig13Metadata512(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(figs, 0, "MLE"), "mle_meta_mb_last")
		b.ReportMetric(lastY(figs, 0, "Combined"), "combined_meta_mb_last")
	}
}

func BenchmarkFig14Metadata4GB(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := eval.Fig14Metadata4G(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(figs, 0, "MLE"), "mle_meta_mb_last")
		b.ReportMetric(lastY(figs, 0, "Combined"), "combined_meta_mb_last")
	}
}

func BenchmarkAttackScaling(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := eval.AttackScaling(ds.FSL)
		b.ReportMetric(lastY([]eval.Figure{fig}, 0, "inferred pairs"), "inferred_pairs_full")
	}
}

// --- Micro-benchmarks of the attack and defense primitives on the
// --- FSL dataset's most recent (aux, target) pair.

func fslPair(b *testing.B) (aux, target *trace.Backup) {
	b.Helper()
	d := eval.Generate().FSL
	return d.Backups[len(d.Backups)-2], d.Backups[len(d.Backups)-1]
}

// benchStreamAttack times one attack on the FSL trace pair at the
// engine's default parallelism.
func benchStreamAttack(b *testing.B, a attack.Attack) {
	b.Helper()
	aux, target := fslPair(b)
	enc := defense.EncryptMLE(target)
	c, m := attack.BackupSource(enc.Backup), attack.BackupSource(aux)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(c, m, attack.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasicAttackStreamFSL(b *testing.B) {
	benchStreamAttack(b, attack.NewBasic(attack.Config{}))
}

func BenchmarkLocalityAttackStreamFSL(b *testing.B) {
	benchStreamAttack(b, attack.NewLocality(attack.DefaultConfig()))
}

func BenchmarkAdvancedAttackStreamFSL(b *testing.B) {
	benchStreamAttack(b, attack.NewAdvanced(attack.DefaultConfig()))
}

func BenchmarkEncryptMLETrace(b *testing.B) {
	_, target := fslPair(b)
	b.SetBytes(int64(target.LogicalSize()))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		defense.EncryptMLE(target)
	}
}

func BenchmarkEncryptCombinedTrace(b *testing.B) {
	_, target := fslPair(b)
	b.SetBytes(int64(target.LogicalSize()))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := defense.Encrypt(target, defense.SchemeCombined, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateFSL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.GenerateFSL(trace.DefaultFSLParams())
	}
}

func BenchmarkGenerateVM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.GenerateVM(trace.DefaultVMParams())
	}
}

// --- Ablation benchmarks (design-choice decompositions; see DESIGN.md).

func BenchmarkAblationDefenseComponents(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := eval.AblationDefenseComponents(ds)
		if err != nil {
			b.Fatal(err)
		}
		y := fig.Series[0].Y
		b.ReportMetric(y[0]*100, "mle_pct")
		b.ReportMetric(y[2]*100, "scramble_only_pct")
		b.ReportMetric(y[4]*100, "combined_pct")
	}
}

func BenchmarkAblationSegmentSize(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := eval.AblationSegmentSize(ds)
		if err != nil {
			b.Fatal(err)
		}
		loss := fig.Series[1].Y
		b.ReportMetric(loss[0]*100, "loss_small_seg_pct")
		b.ReportMetric(loss[len(loss)-1]*100, "loss_paper_seg_pct")
	}
}

func BenchmarkAblationTieBreaking(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := eval.AblationTieBreaking(ds)
		b.ReportMetric(fig.Series[0].Y[0]*100, "fsl_position_ties_pct")
		b.ReportMetric(fig.Series[1].Y[0]*100, "fsl_arbitrary_ties_pct")
	}
}

func BenchmarkRestoreLocality(b *testing.B) {
	ds := eval.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := eval.RestoreLocality(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY([]eval.Figure{fig}, 0, "MLE"), "mle_reads_last_backup")
		b.ReportMetric(lastY([]eval.Figure{fig}, 0, "Combined"), "combined_reads_last_backup")
	}
}

// --- Concurrency benchmarks: the sharded store and the parallel backup
// --- pipeline (PR 1). BenchmarkBackupSerial is the single-worker
// --- baseline; BenchmarkBackupParallel fans the encrypt+fingerprint
// --- stage out to GOMAXPROCS workers over the same stream.

// benchStream returns a pseudo-random backup stream that does not
// self-deduplicate, so every chunk goes through the full encrypt path.
func benchStream(n int) []byte {
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(42))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

// benchBackup reports, besides MB/s, how many cores the pipeline kept
// busy: process CPU seconds over wall seconds.
func benchBackup(b *testing.B, workers int, algo ChunkAlgorithm) {
	data := benchStream(16 << 20)
	params := DefaultChunkingParams()
	params.Algorithm = algo
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := processCPUSeconds()
	for i := 0; i < b.N; i++ {
		store := dedup.NewStore(0)
		client, err := dedup.NewClient(store, ClientConfig{Chunking: params, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Backup(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((processCPUSeconds()-cpu0)/b.Elapsed().Seconds(), "cores")
}

// processCPUSeconds is the process's user+system CPU time so far.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func BenchmarkBackupSerial(b *testing.B)   { benchBackup(b, 1, AlgoRabin) }
func BenchmarkBackupParallel(b *testing.B) { benchBackup(b, runtime.GOMAXPROCS(0), AlgoRabin) }

// BenchmarkBackupGear is BenchmarkBackupParallel with AlgoGear chunking:
// the pipeline number that making gear the default is judged by. The
// chunker's own speedup (BenchmarkChunkerGear vs BenchmarkChunkerCDC)
// does not carry over whole, because the chunker shares the cores with
// the encrypt pool.
func BenchmarkBackupGear(b *testing.B) { benchBackup(b, runtime.GOMAXPROCS(0), AlgoGear) }

// BenchmarkBackupIncremental times the backup a backup system mostly
// runs: a child generation that repeats over 90 % of its parent's chunks,
// into a fresh file-backed repository holding only the parent, which is
// backed up untimed. Under convergent encryption the repeated chunks are
// found in the parent's recipe and never encrypted, so allocs/op sit far
// below BenchmarkBackupParallel's. It reports MB/s of the child and, like
// benchBackup, the cores the timed backups kept busy.
func BenchmarkBackupIncremental(b *testing.B) {
	ctx := context.Background()
	parent := benchStream(16 << 20)
	child := append([]byte(nil), parent...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		at := rng.Intn(len(child) - 16<<10)
		rng.Read(child[at : at+16<<10])
	}
	b.SetBytes(int64(len(child)))
	b.ReportAllocs()
	var cpu float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repo, err := CreateRepository(filepath.Join(b.TempDir(), "repo"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.Backup(ctx, "parent", bytes.NewReader(parent)); err != nil {
			b.Fatal(err)
		}
		cpu0 := processCPUSeconds()
		b.StartTimer()
		if _, err := repo.Backup(ctx, "child", bytes.NewReader(child)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cpu += processCPUSeconds() - cpu0
		if err := repo.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(cpu/b.Elapsed().Seconds(), "cores")
}

// BenchmarkBackupConcurrentCommit runs four Backups at once into a fresh
// file-backed repository on the real disk, so the commit path — seal
// pass, trace log, catalog, each group-committed by absorption — is paid
// for real. It reports, besides MB/s, the fsyncs per backup, the number a
// per-session commit has to bring down.
func BenchmarkBackupConcurrentCommit(b *testing.B) {
	const tenants = 4
	ctx := context.Background()
	datas := make([][]byte, tenants)
	for i := range datas {
		datas[i] = repoData(int64(500+i), 2<<20)
	}
	b.SetBytes(int64(tenants * len(datas[0])))
	syncs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfs := newCountingFS(OSFileSystem)
		repo, err := CreateRepository(filepath.Join(b.TempDir(), "repo"), WithFileSystem(cfs), WithUploadObserver(nil))
		if err != nil {
			b.Fatal(err)
		}
		pre := cfs.count("*")
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make([]error, tenants)
		for k := range datas {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				_, errs[k] = repo.Backup(ctx, fmt.Sprintf("t%d", k), bytes.NewReader(datas[k]))
			}(k)
		}
		wg.Wait()
		b.StopTimer()
		syncs += cfs.count("*") - pre
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		if err := repo.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(syncs)/float64(b.N*tenants), "fsyncs/backup")
}

// BenchmarkChunkerCDC measures the ingest path in its backup-pipeline
// configuration: content-defined chunking over a pooled, released chunk
// stream with plaintext fingerprinting deferred (the serial stage that
// bounds Backup throughput by Amdahl's law). Steady state runs
// allocation-free.
func BenchmarkChunkerCDC(b *testing.B) {
	data := benchStream(16 << 20)
	params := DefaultChunkingParams()
	params.DeferFingerprint = true
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewContentDefinedChunker(bytes.NewReader(data), params)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for {
			ch, err := c.Next()
			if err != nil {
				break
			}
			n += int64(ch.Size())
			ch.Release()
		}
		if n != int64(len(data)) {
			b.Fatalf("chunked %d of %d bytes", n, len(data))
		}
	}
}

// BenchmarkChunkerCDCFingerprinted is the same stream with inline SHA-256
// fingerprinting, the seed chunker's configuration — the gap to
// BenchmarkChunkerCDC is what deferring the hash into the worker pool
// buys the serial stage.
func BenchmarkChunkerCDCFingerprinted(b *testing.B) {
	data := benchStream(16 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewContentDefinedChunker(bytes.NewReader(data), DefaultChunkingParams())
		if err != nil {
			b.Fatal(err)
		}
		for {
			ch, err := c.Next()
			if err != nil {
				break
			}
			ch.Release()
		}
	}
}

// BenchmarkChunkerGear is BenchmarkChunkerCDC with the gear-hash
// algorithm (AlgoGear): same pooled-buffer stream, same deferred
// fingerprinting, different (incompatible) cut-point format. The gap to
// BenchmarkChunkerCDC is the rolling-hash speedup — one table lookup,
// shift, and add per byte plus cut-point skipping, versus Rabin's
// window maintenance.
func BenchmarkChunkerGear(b *testing.B) {
	data := benchStream(16 << 20)
	params := DefaultChunkingParams()
	params.Algorithm = AlgoGear
	params.DeferFingerprint = true
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewGearChunker(bytes.NewReader(data), params)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for {
			ch, err := c.Next()
			if err != nil {
				break
			}
			n += int64(ch.Size())
			ch.Release()
		}
		if n != int64(len(data)) {
			b.Fatalf("chunked %d of %d bytes", n, len(data))
		}
	}
}

// --- Restore benchmarks: one planned restore path (plan, prefetch window,
// --- slab decrypt, in-order write). BenchmarkRestoreSerial runs it with
// --- one worker and BenchmarkRestoreParallel with GOMAXPROCS, both on an
// --- in-memory store, where a container read copies nothing;
// --- BenchmarkRestoreFile restores from a file-backed store, so its B/op
// --- includes every container the restore reads.

func benchRestore(b *testing.B, store *dedup.Store, workers int) {
	data := benchStream(16 << 20)
	backup, err := dedup.NewClient(store, ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	recipe, err := backup.Backup(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		b.Fatal(err)
	}
	client, err := dedup.NewClient(store, ClientConfig{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Restore(recipe, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreSerial(b *testing.B) { benchRestore(b, dedup.NewStore(0), 1) }

func BenchmarkRestoreParallel(b *testing.B) {
	benchRestore(b, dedup.NewStore(0), runtime.GOMAXPROCS(0))
}

func BenchmarkRestoreFile(b *testing.B) {
	store, err := dedup.Create(b.TempDir(), 0, 16)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	benchRestore(b, store, runtime.GOMAXPROCS(0))
}

// benchServerBackup measures the multi-tenant network path end to end:
// N loopback clients, each its own tenant, concurrently back up disjoint
// pseudo-random streams through the wire protocol (chunk negotiation,
// convergent encryption client-side, bounded in-flight windows) into one
// shared in-memory repository. Bytes/op counts the aggregate logical
// bytes, so ns/op tracks aggregate wire throughput. Each iteration gets
// a fresh repository — no cross-iteration dedup, every chunk takes the
// full negotiate-miss-upload path.
func benchServerBackup(b *testing.B, clients int) {
	const perClient = 4 << 20
	streams := make([][]byte, clients)
	for i := range streams {
		streams[i] = make([]byte, perClient)
		rng := rand.New(rand.NewSource(int64(1 + i)))
		for j := range streams[i] {
			streams[i][j] = byte(rng.Intn(256))
		}
	}
	ctx := context.Background()
	b.SetBytes(int64(clients) * perClient)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repo, err := CreateRepository("")
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewRepositoryServer(repo, ServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		addr := ln.Addr().String()
		b.StartTimer()

		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := DialServer(addr, RemoteClientConfig{Tenant: fmt.Sprintf("t%d", c)})
				if err != nil {
					errs[c] = err
					return
				}
				defer cl.Close()
				_, errs[c] = cl.Backup(ctx, "bench", bytes.NewReader(streams[c]))
			}(c)
		}
		wg.Wait()

		b.StopTimer()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			b.Fatal(err)
		}
		if err := repo.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkServerBackup(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServerBackup(b, clients)
		})
	}
}

// BenchmarkStoreShards measures concurrent PutBatch throughput against
// the shard count: GOMAXPROCS uploaders hammer one store with disjoint
// chunk batches. shards=1 is the serialized baseline. Each b.N iteration
// pushes batchesPerOp batches (~16 MiB), so one iteration spans many GC
// cycles — a single-batch iteration is ~130µs and its timing is GC
// lottery, which made the benchmark too noisy for cmd/benchgate's
// pinned-iteration regression gate.
// --- Fingerprint index benchmarks: repository open cost against chunk
// --- count, and single-lookup latency through the memtable/filter/run
// --- stack.

// populateRepoChunks pushes n synthetic fixed-size chunks through the
// store's batch write path, bypassing chunking and encryption so chunk
// COUNT — the variable the index scales in — is controlled directly.
// Fingerprints are mixed so chunks spread across shards.
func populateRepoChunks(b *testing.B, repo *Repository, n int) {
	b.Helper()
	const perBatch = 512
	data := benchStream(64)
	batch := make([]dedup.PutChunk, 0, perBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := repo.store.PutBatch(batch); err != nil {
			b.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < n; i++ {
		fp := fphash.FromUint64(fphash.FromUint64(uint64(i) + 1).Mix(1))
		batch = append(batch, dedup.PutChunk{FP: fp, Data: data})
		if len(batch) == perBatch {
			flush()
		}
	}
	flush()
	if err := repo.store.Sync(); err != nil {
		b.Fatal(err)
	}
}

// benchRepositoryOpen measures a cold OpenRepository of a repository
// holding `chunks` fingerprints. Bytes/op counts 16 bytes of index
// metadata per chunk, so the reported MB/s is metadata throughput: it
// rises linearly with chunk count, because the open reads run footers
// and filters, not the chunks.
func benchRepositoryOpen(b *testing.B, chunks int) {
	dir := b.TempDir()
	repo, err := CreateRepository(dir)
	if err != nil {
		b.Fatal(err)
	}
	populateRepoChunks(b, repo, chunks)
	if err := repo.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(chunks) * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenRepository(dir)
		if err != nil {
			b.Fatal(err)
		}
		if got := r.store.UniqueChunks(); got != chunks {
			b.Fatalf("reopened repository reports %d chunks, want %d", got, chunks)
		}
		b.StopTimer()
		if i == b.N-1 {
			// Residency of an open repository, while it is still open: it
			// stays bounded by the memtables + cache + run filters.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "open_heap_MB")
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	// Collapse the GC pacing target now that the repository is closed: the
	// 1M/10M points' setup otherwise leaves a large heap goal behind, so
	// whether they ran (-short, FPBENCH_10M) would change the GC frequency
	// — and the measured throughput — of later benchmarks in the same
	// process.
	runtime.GC()
}

// BenchmarkRepositoryOpen measures cold opens: chunks=100k always runs;
// chunks=1M is skipped under -short; the chunks=10M point needs
// FPBENCH_10M=1 (it writes ~1 GiB of containers in setup). MB/s climbs
// across rows because open time is O(metadata). The mode=fpindex level
// keeps the names the committed BENCH_*.json floors are recorded under.
func BenchmarkRepositoryOpen(b *testing.B) {
	sizes := []struct {
		name   string
		chunks int
	}{{"chunks=100k", 100_000}, {"chunks=1M", 1_000_000}, {"chunks=10M", 10_000_000}}
	b.Run("mode=fpindex", func(b *testing.B) {
		for _, s := range sizes {
			b.Run(s.name, func(b *testing.B) {
				if s.chunks > 100_000 && testing.Short() {
					b.Skip("-short: 100k-chunk point only")
				}
				if s.chunks >= 10_000_000 && os.Getenv("FPBENCH_10M") == "" {
					b.Skip("set FPBENCH_10M=1 for the 10M-chunk open benchmark")
				}
				benchRepositoryOpen(b, s.chunks)
			})
		}
	})
}

// BenchmarkIndexLookup measures single-fingerprint lookups through the
// index's read stack. hit probes stored fingerprints; miss probes absent
// ones (the memtable misses and each run's own Bloom filter rules the
// fingerprint out, so no run block is read).
// Bytes/op is one fingerprint, so MB/s is gateable lookup throughput.
// Each sub-benchmark also reports where its lookups were answered, per
// op: bloom negatives, memtable hits, block-cache hits and disk probes.
// At 200k chunks the default memtables (16 shards x 32k entries) still
// hold every stored fingerprint, so hit reads 1 memtable hit per op and
// no run block.
func BenchmarkIndexLookup(b *testing.B) {
	const n = 200_000
	dir := b.TempDir()
	repo, err := CreateRepository(dir)
	if err != nil {
		b.Fatal(err)
	}
	populateRepoChunks(b, repo, n)
	fpAt := func(i int) fphash.Fingerprint {
		return fphash.FromUint64(fphash.FromUint64(uint64(i) + 1).Mix(1))
	}
	reportCounters := func(b *testing.B, before trace.DedupStats) {
		after := repo.store.Stats()
		perOp := func(v uint64) float64 { return float64(v) / float64(b.N) }
		b.ReportMetric(perOp(after.IndexBloomNegative-before.IndexBloomNegative), "bloom_neg/op")
		b.ReportMetric(perOp(after.IndexMemtableHits-before.IndexMemtableHits), "memtable_hits/op")
		b.ReportMetric(perOp(after.IndexBlockCacheHits-before.IndexBlockCacheHits), "cache_hits/op")
		b.ReportMetric(perOp(after.IndexDiskProbes-before.IndexDiskProbes), "disk_probes/op")
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(fphash.Size)
		b.ReportAllocs()
		before := repo.store.Stats()
		for i := 0; i < b.N; i++ {
			if !repo.store.Contains(fpAt(i % n)) {
				b.Fatal("stored fingerprint not found")
			}
		}
		reportCounters(b, before)
	})
	b.Run("miss", func(b *testing.B) {
		b.SetBytes(fphash.Size)
		b.ReportAllocs()
		before := repo.store.Stats()
		// Mix is a bijective finalizer, so probing counters past n is
		// guaranteed disjoint from the stored set.
		for i := 0; i < b.N; i++ {
			if repo.store.Contains(fpAt(n + 1 + i)) {
				b.Fatal("absent fingerprint found")
			}
		}
		reportCounters(b, before)
	})
	if err := repo.Close(); err != nil {
		b.Fatal(err)
	}
	// Drop the 200k-chunk working set from the GC pacing target before the
	// next benchmark (see benchRepositoryOpen).
	runtime.GC()
}

func BenchmarkStoreShards(b *testing.B) {
	const (
		chunkSize    = 8 << 10
		perBatch     = 64
		batchesPerOp = 32
	)
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := dedup.NewStoreWithShards(0, shards)
			// Pin the GC pacing target to this benchmark's own live heap:
			// with pinned 10x iterations, throughput otherwise swings ~3x
			// depending on how much heap earlier benchmarks left behind.
			runtime.GC()
			b.SetBytes(chunkSize * perBatch * batchesPerOp)
			b.ReportAllocs()
			var worker atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Per-goroutine chunk namespace: no cross-worker dedup, so
				// every Put exercises the index+packer write path. The raw
				// counter is mixed so the leading byte (the shard key)
				// varies chunk to chunk; a plain counter would pin each
				// goroutine's entire namespace to a single shard.
				base := uint64(worker.Add(1)) << 32
				batch := make([]dedup.PutChunk, perBatch)
				data := benchStream(chunkSize)
				var n uint64
				for pb.Next() {
					for j := 0; j < batchesPerOp; j++ {
						for i := range batch {
							n++
							fp := fphash.FromUint64(base + n)
							batch[i] = dedup.PutChunk{FP: fphash.FromUint64(fp.Mix(0)), Data: data}
						}
						if _, err := store.PutBatch(batch); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}
