// Command ddfsbench reproduces the metadata-access-overhead experiment of
// Section 7.4 (Figures 13 and 14): it replays the FSL dataset, encrypted
// under baseline MLE and under the combined MinHash+scrambling scheme,
// through the DDFS-like deduplication prototype and reports the on-disk
// metadata access volume per backup.
//
// It also measures the byte-level backup pipeline itself: -pipeline
// replays a pseudo-random stream through the sharded store with the
// parallel encrypt+fingerprint client and reports throughput, so the
// effect of -shards and -workers is visible on real hardware. -chunker
// isolates the streaming ingest stage (content-defined chunking with
// pooled buffers and deferred fingerprinting), the serial stage that
// bounds backup throughput. -restore drives the repository round trip
// end to end: CreateRepository under -dir, Backup (sealed recipe into the
// crash-safe snapshot catalog), close, OpenRepository (catalog replayed,
// refcounts restored), Verify, and a planned Restore with SHA-256
// verification. Ctrl-C cancels the in-flight stage cleanly
// through the context plumbing.
//
// -attack benchmarks the streaming attack engine: sharded two-pass
// counting and the full locality attack over a generated trace, so the
// effect of table shards and counting workers is visible on real
// hardware.
//
//	ddfsbench            # both cache regimes
//	ddfsbench -cache 0.25
//	ddfsbench -pipeline -mb 64 -shards 16 -workers 0
//	ddfsbench -chunker -mb 256
//	ddfsbench -chunker -gear -mb 256   # gear-hash chunk format
//	ddfsbench -restore -mb 64 -workers 0
//	ddfsbench -restore -dir /tmp/ddfs-store   # keep the repository around
//	ddfsbench -attack -mb 256 -shards 16 -workers 0
//	ddfsbench -attack -workload database -mb 64
//	                     # attack-engine benchmark on a registered workload
//	ddfsbench -faults -rounds 8
//	                     # crash-consistency soak: exhaustive crash-point
//	                     # sweeps across 8 scenario seeds
//	ddfsbench -server -clients 4 -mb 16
//	                     # multi-tenant server load: N loopback network
//	                     # clients against one in-process defendd
//	ddfsbench -index -chunks 1000000
//	                     # fingerprint-index comparison: cold-open latency,
//	                     # lookup throughput, and resident heap for the
//	                     # in-memory map vs the persistent on-disk index
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"freqdedup"
	"freqdedup/internal/attack"
	"freqdedup/internal/chunker"
	"freqdedup/internal/container"
	"freqdedup/internal/dedup"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
	"freqdedup/internal/workload"
)

func main() {
	cacheFrac := flag.Float64("cache", 0,
		"fingerprint cache size as a fraction of total fingerprint metadata (0 = run both paper regimes)")
	pipeline := flag.Bool("pipeline", false,
		"benchmark the byte-level backup pipeline instead of the metadata experiments")
	chunkerOnly := flag.Bool("chunker", false,
		"benchmark the streaming content-defined chunker alone (the ingest stage)")
	gear := flag.Bool("gear", false,
		"use the gear-hash chunk format in -chunker mode (NOT cut-compatible with the default Rabin format)")
	restoreMode := flag.Bool("restore", false,
		"benchmark backup-to-disk, reopen, and restore end to end")
	attackMode := flag.Bool("attack", false,
		"benchmark the streaming attack engine's sharded parallel counting")
	faultsMode := flag.Bool("faults", false,
		"soak the crash-point explorer: exhaustive crash sweeps across -rounds scenario seeds")
	serverMode := flag.Bool("server", false,
		"benchmark the multi-tenant server: -clients loopback network clients against one shared repository")
	indexMode := flag.Bool("index", false,
		"benchmark the fingerprint index: cold-open latency, lookup throughput, and resident heap for the in-memory map vs the persistent bloom-fronted index")
	chunks := flag.Int("chunks", 200_000, "chunk count for -index mode")
	rounds := flag.Int("rounds", 4, "scenario seeds to sweep in -faults mode")
	dir := flag.String("dir", "",
		"store directory for -restore (empty = temporary directory, removed afterwards)")
	streamMB := flag.Int("mb", 64, "pipeline stream size in MiB")
	shards := flag.Int("shards", dedup.DefaultShards, "store shard count (1 = serial engine layout)")
	workers := flag.Int("workers", 0, "encrypt/restore workers per client (0 = GOMAXPROCS)")
	clients := flag.Int("clients", 1, "concurrent backup clients sharing one store")
	workloadName := flag.String("workload", "",
		"registered workload for the -attack trace (empty = classic synthetic; see tracegen -list)")
	flag.Parse()

	if *chunkerOnly {
		if err := runChunker(*streamMB, *gear); err != nil {
			fatal(err)
		}
		return
	}
	if *restoreMode {
		if err := runRestore(*streamMB, *shards, *workers, *dir); err != nil {
			fatal(err)
		}
		return
	}
	if *attackMode {
		if err := runAttack(*streamMB, *shards, *workers, *workloadName); err != nil {
			fatal(err)
		}
		return
	}
	if *faultsMode {
		if err := runFaults(*rounds); err != nil {
			fatal(err)
		}
		return
	}
	if *serverMode {
		if err := runServer(*streamMB, *workers, *clients, *dir); err != nil {
			fatal(err)
		}
		return
	}
	if *indexMode {
		if err := runIndex(*chunks, *shards, *dir); err != nil {
			fatal(err)
		}
		return
	}
	if *pipeline {
		if err := runPipeline(*streamMB, *shards, *workers, *clients); err != nil {
			fatal(err)
		}
		return
	}

	ds := eval.Generate()
	if *cacheFrac > 0 {
		figs, err := eval.MetadataWithCacheFrac(ds, *cacheFrac)
		if err != nil {
			fatal(err)
		}
		for i := range figs {
			figs[i].Render(os.Stdout)
		}
		return
	}
	f13, err := eval.Fig13Metadata512(ds)
	if err != nil {
		fatal(err)
	}
	f14, err := eval.Fig14Metadata4G(ds)
	if err != nil {
		fatal(err)
	}
	for i := range f13 {
		f13[i].Render(os.Stdout)
	}
	for i := range f14 {
		f14[i].Render(os.Stdout)
	}
	restore, err := eval.RestoreLocality(ds)
	if err != nil {
		fatal(err)
	}
	restore.Render(os.Stdout)
}

// runPipeline drives the byte-level engine: each client backs up its own
// pseudo-random stream (no cross-client dedup, so every chunk takes the
// full encrypt+pack path) into one shared sharded store, all clients
// concurrently. It prints aggregate throughput and store statistics.
func runPipeline(streamMB, shards, workers, clients int) error {
	if streamMB <= 0 || clients <= 0 {
		return fmt.Errorf("stream size and client count must be positive")
	}
	if shards < 0 || shards > 256 {
		return fmt.Errorf("-shards must be in [1, 256] (0 selects the default), got %d", shards)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 selects GOMAXPROCS), got %d", workers)
	}
	store := dedup.NewStoreWithShards(0, shards)
	streams := make([][]byte, clients)
	for i := range streams {
		streams[i] = make([]byte, streamMB<<20)
		rng := rand.New(rand.NewSource(int64(1 + i)))
		for j := range streams[i] {
			streams[i][j] = byte(rng.Intn(256))
		}
	}
	fmt.Printf("pipeline: %d client(s) x %d MiB, %d shard(s), %d worker(s), GOMAXPROCS=%d\n",
		clients, streamMB, store.ShardCount(), workers, runtime.GOMAXPROCS(0))

	errs := make(chan error, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		go func(i int) {
			client, err := dedup.NewClient(store, dedup.Config{
				Workers:      workers,
				ScrambleSeed: int64(1 + i),
			})
			if err != nil {
				errs <- err
				return
			}
			_, err = client.Backup(bytes.NewReader(streams[i]))
			errs <- err
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	st := store.Stats()
	mb := float64(st.LogicalBytes) / (1 << 20)
	fmt.Printf("backed up %.0f MiB in %v: %.1f MB/s\n", mb, elapsed.Round(time.Millisecond),
		mb/elapsed.Seconds())
	fmt.Printf("store: %d logical chunks, %d unique, %d container(s), saving %.1f%%\n",
		st.LogicalChunks, st.UniqueChunks, store.ContainerCount(), st.Saving()*100)
	return nil
}

// countingHashWriter hashes and counts everything written, so a restore
// can be verified without holding the output stream in memory.
type countingHashWriter struct {
	h interface {
		io.Writer
		Sum([]byte) []byte
	}
	n int64
}

func (w *countingHashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// runRestore drives the full repository loop: back a pseudo-random
// stream up through Repository.Backup (snapshot sealed into the durable
// catalog), close, OpenRepository (catalog replayed, reference counts
// restored), Verify the store, and Restore, checking the restored bytes
// hash-identical to the input.
// Ctrl-C cancels whichever stage is in flight via its context.
func runRestore(streamMB, shards, workers int, dir string) error {
	if streamMB <= 0 {
		return fmt.Errorf("stream size must be positive")
	}
	if shards < 0 || shards > 256 {
		return fmt.Errorf("-shards must be in [1, 256] (0 selects the default), got %d", shards)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be non-negative")
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ddfsbench-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	data := make([]byte, streamMB<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	wantSum := sha256.Sum256(data)
	mb := float64(len(data)) / (1 << 20)

	repo, err := freqdedup.CreateRepository(dir,
		freqdedup.WithShards(shards),
		freqdedup.WithWorkers(workers),
	)
	if err != nil {
		return err
	}
	fmt.Printf("restore: %d MiB via %s, %d shard(s), %d worker(s), GOMAXPROCS=%d\n",
		streamMB, dir, shards, workers, runtime.GOMAXPROCS(0))

	start := time.Now()
	snap, err := repo.Backup(ctx, "bench", bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := repo.Close(); err != nil {
		return err
	}
	backupTime := time.Since(start)
	fmt.Printf("backup+seal: %v (%.1f MB/s to disk, %d chunks, snapshot durable in catalog)\n",
		backupTime.Round(time.Millisecond), mb/backupTime.Seconds(), snap.Chunks)

	start = time.Now()
	reopened, err := freqdedup.OpenRepository(dir,
		freqdedup.WithWorkers(workers),
	)
	if err != nil {
		return err
	}
	defer reopened.Close()
	st := reopened.Stats()
	fmt.Printf("reopen: %v (%d snapshot(s), %d unique chunks reindexed)\n",
		time.Since(start).Round(time.Millisecond), len(reopened.Snapshots()), st.UniqueChunks)

	start = time.Now()
	if err := reopened.Verify(ctx); err != nil {
		return err
	}
	fmt.Printf("verify: %v (every chunk checksummed and fingerprint-checked)\n",
		time.Since(start).Round(time.Millisecond))

	out := &countingHashWriter{h: sha256.New()}
	start = time.Now()
	if err := reopened.Restore(ctx, "bench", out); err != nil {
		return err
	}
	restoreTime := time.Since(start)
	if out.n != int64(len(data)) || !bytes.Equal(out.h.Sum(nil), wantSum[:]) {
		return fmt.Errorf("restore verification failed: %d bytes restored of %d", out.n, len(data))
	}
	fmt.Printf("restore: %v: %.1f MB/s (verified bit-for-bit)\n",
		restoreTime.Round(time.Millisecond), mb/restoreTime.Seconds())
	return nil
}

// runAttack benchmarks the streaming attack engine: it generates a trace
// pair scaled to -mb logical megabytes (the classic synthetic chain, or
// any registered workload via -workload), encrypts the target under
// baseline MLE, and times first the two-pass sharded counting alone (via
// the basic attack, which is counting plus one rank) and then the full
// locality attack, reporting logical-byte throughput. -shards and
// -workers select the engine's parallelism; results are bit-identical at
// every setting.
func runAttack(streamMB, shards, workers int, workloadName string) error {
	if streamMB <= 0 {
		return fmt.Errorf("stream size must be positive")
	}
	var d *trace.Dataset
	if workloadName != "" {
		var err error
		d, err = workload.Generate(workloadName, workload.Config{
			Backups:    3,
			TotalBytes: streamMB << 20,
		})
		if err != nil {
			return err
		}
	} else {
		p := trace.DefaultSyntheticParams()
		p.InitialBytes = streamMB << 20
		p.NewDataBytes = (streamMB << 20) / 100
		p.Snapshots = 2
		d = trace.GenerateSynthetic(p)
	}
	aux, target := d.Backups[0], d.Backups[len(d.Backups)-1]
	enc := defense.EncryptMLE(target)
	params := attack.Params{Shards: shards, Workers: workers}
	logicalMB := float64(target.LogicalSize()+aux.LogicalSize()) / (1 << 20)
	fmt.Printf("attack: %.0f MiB of trace (%d + %d chunks, %d unique targets), shards=%d, workers=%d, GOMAXPROCS=%d\n",
		logicalMB, len(target.Chunks), len(aux.Chunks), enc.Backup.UniqueCount(),
		shards, workers, runtime.GOMAXPROCS(0))

	start := time.Now()
	basic, err := attack.NewBasic(attack.Config{}).Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), params)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("counting (basic attack): %v, %.1f MB/s, %d pairs, rate %.2f%%\n",
		elapsed.Round(time.Millisecond), logicalMB/elapsed.Seconds(),
		len(basic.Pairs), basic.InferenceRate(enc.Truth)*100)

	cfg := attack.DefaultConfig()
	start = time.Now()
	loc, err := attack.NewLocality(cfg).Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), params)
	if err != nil {
		return err
	}
	elapsed = time.Since(start)
	fmt.Printf("locality attack: %v, %.1f MB/s, %d pairs, rate %.2f%% (%d iterations, peak queue %d)\n",
		elapsed.Round(time.Millisecond), logicalMB/elapsed.Seconds(),
		len(loc.Pairs), loc.InferenceRate(enc.Truth)*100,
		loc.Stats.Iterations, loc.Stats.PeakQueue)
	return nil
}

// runFaults is the crash-consistency soak: for each scenario seed it runs
// the exhaustive crash-point sweep — crash the scripted
// backup/delete/GC/backup scenario at EVERY mutating filesystem
// operation, reopen the durable image, and check the full recovery
// invariant set — and reports throughput in crash points per second. Any
// failure is a real durability bug: it prints the scenario seed and crash
// op needed to replay it deterministically, and exits non-zero.
func runFaults(rounds int) error {
	if rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", rounds)
	}
	fmt.Printf("faults: exhaustive crash sweep x %d scenario seed(s), GOMAXPROCS=%d\n",
		rounds, runtime.GOMAXPROCS(0))
	var points, failures int
	start := time.Now()
	for seed := int64(1); seed <= int64(rounds); seed++ {
		roundStart := time.Now()
		res, err := freqdedup.ExploreCrashPoints(freqdedup.CrashSweepOptions{
			Scenario: freqdedup.CrashScenario{Seed: seed},
		})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		points += len(res.PointsTested)
		failures += len(res.Failures)
		for _, f := range res.Failures {
			fmt.Printf("  FAIL seed %d crash op %d/%d: %v\n", seed, f.Op, res.TotalOps, f.Err)
		}
		fmt.Printf("  seed %d: %d crash points (%d sync points) in %v\n",
			seed, len(res.PointsTested), len(res.SyncPoints),
			time.Since(roundStart).Round(time.Millisecond))
	}
	elapsed := time.Since(start)
	fmt.Printf("swept %d crash points in %v: %.1f points/s, %d failure(s)\n",
		points, elapsed.Round(time.Millisecond), float64(points)/elapsed.Seconds(), failures)
	if failures > 0 {
		return fmt.Errorf("%d crash point(s) violated recovery invariants", failures)
	}
	return nil
}

// runServer drives the multi-tenant network path end to end: one
// in-process repository server on a loopback listener, -clients network
// clients each dialing as its own tenant and backing up -mb MiB. Half of
// every stream is shared across tenants and half is private, so the
// negotiation round has real cross-tenant dedup to find; the report
// separates wire throughput from the store's dedup ratio.
func runServer(streamMB, workers, clients int, dir string) error {
	if streamMB <= 0 || clients <= 0 {
		return fmt.Errorf("stream size and client count must be positive")
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ddfsbench-server-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Half shared across every tenant, half private per tenant: the
	// shared half uploads once and then dedups over the wire (misses
	// only), so the dedup ratio approaches 2 as -clients grows.
	shared := make([]byte, (streamMB<<20)/2)
	rng := rand.New(rand.NewSource(9000))
	for i := range shared {
		shared[i] = byte(rng.Intn(256))
	}
	streams := make([][]byte, clients)
	for i := range streams {
		streams[i] = make([]byte, 0, streamMB<<20)
		streams[i] = append(streams[i], shared...)
		private := make([]byte, (streamMB<<20)-len(shared))
		prng := rand.New(rand.NewSource(int64(9001 + i)))
		for j := range private {
			private[j] = byte(prng.Intn(256))
		}
		streams[i] = append(streams[i], private...)
	}

	repo, err := freqdedup.CreateRepository(dir)
	if err != nil {
		return err
	}
	defer repo.Close()
	srv, err := freqdedup.NewRepositoryServer(repo, freqdedup.ServerConfig{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Printf("server: %d tenant(s) x %d MiB over loopback %s, %d worker(s)/client, GOMAXPROCS=%d\n",
		clients, streamMB, addr, workers, runtime.GOMAXPROCS(0))

	errs := make(chan error, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		go func(i int) {
			c, err := freqdedup.DialServer(addr, freqdedup.RemoteClientConfig{
				Tenant:  fmt.Sprintf("t%d", i),
				Workers: workers,
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Backup(ctx, "bench", bytes.NewReader(streams[i]))
			errs <- err
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	st := repo.Stats()
	logicalMB := float64(st.LogicalBytes) / (1 << 20)
	storedMB := float64(st.PhysicalBytes) / (1 << 20)
	dedupRatio := st.Ratio()
	fmt.Printf("backed up %.0f MiB in %v: %.1f MB/s aggregate over the wire\n",
		logicalMB, elapsed.Round(time.Millisecond), logicalMB/elapsed.Seconds())
	fmt.Printf("store: %d logical chunks, %d unique, %.0f MiB stored, dedup ratio %.2fx\n",
		st.LogicalChunks, st.UniqueChunks, storedMB, dedupRatio)

	usage, err := repo.TenantStats()
	if err != nil {
		return err
	}
	for _, u := range usage {
		fmt.Printf("tenant %-4s: %3d MiB logical, %3d MiB stored (%d exclusive / %d shared chunks)\n",
			u.Tenant, u.LogicalBytes>>20, u.StoredBytes>>20, u.ExclusiveChunks, u.SharedChunks)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-serveDone; err != nil {
		return err
	}
	return nil
}

// runIndex compares the two fingerprint-index engines head to head on a
// store of -chunks synthetic fixed-size chunks: cold-open latency (the
// map rescans every container's metadata; the persistent index reads run
// footers, bloom filters, and only the unflushed container tail), lookup
// throughput for present and absent fingerprints, and the resident heap
// of the open store. The persistent run also prints the lookup-path
// decomposition counters (bloom negatives, memtable hits, cache hits,
// disk probes).
func runIndex(chunks, shards int, dir string) error {
	if chunks <= 0 {
		return fmt.Errorf("-chunks must be positive, got %d", chunks)
	}
	if shards < 0 || shards > 256 {
		return fmt.Errorf("-shards must be in [1, 256] (0 selects the default), got %d", shards)
	}
	if shards == 0 {
		shards = dedup.DefaultShards
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ddfsbench-index-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("index: %d chunks, %d shard(s), GOMAXPROCS=%d\n", chunks, shards, runtime.GOMAXPROCS(0))

	// Mix is a bijective finalizer over the counter, so fpAt(1..chunks)
	// is the stored set and any counter past chunks is a guaranteed miss.
	fpAt := func(i int) fphash.Fingerprint {
		return fphash.FromUint64(fphash.FromUint64(uint64(i) + 1).Mix(1))
	}
	heapMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse) / (1 << 20)
	}

	for _, mode := range []string{"map", "fpindex"} {
		sub := filepath.Join(dir, mode)
		opts := dedup.StoreOptions{}
		if mode == "fpindex" {
			opts.Index = dedup.IndexPersistent
			opts.IndexDir = filepath.Join(sub, "fpindex")
		}

		// Populate through the batch write path and flush everything.
		backend, err := container.CreateFileBackend(filepath.Join(sub, "store"), shards, container.DefaultBytes)
		if err != nil {
			return err
		}
		store, err := dedup.NewStoreWithOptions(backend, opts)
		if err != nil {
			return err
		}
		const perBatch = 512
		data := make([]byte, 64)
		rand.New(rand.NewSource(1)).Read(data)
		batch := make([]dedup.PutChunk, 0, perBatch)
		start := time.Now()
		for i := 0; i < chunks; i++ {
			batch = append(batch, dedup.PutChunk{FP: fpAt(i), Data: data})
			if len(batch) == perBatch || i == chunks-1 {
				if _, err := store.PutBatch(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if err := store.Close(); err != nil {
			return err
		}
		fmt.Printf("%-8s populate: %d chunks in %v\n", mode, chunks, time.Since(start).Round(time.Millisecond))

		// Cold open.
		base := heapMB()
		start = time.Now()
		backend, err = container.OpenFileBackend(filepath.Join(sub, "store"))
		if err != nil {
			return err
		}
		store, err = dedup.NewStoreWithOptions(backend, opts)
		if err != nil {
			return err
		}
		openTime := time.Since(start)
		if got := store.UniqueChunks(); got != chunks {
			return fmt.Errorf("%s: reopened store has %d chunks, want %d", mode, got, chunks)
		}
		fmt.Printf("%-8s open: %v cold (%.1f MB heap while open, %.1f before)\n",
			mode, openTime.Round(time.Microsecond), heapMB(), base)

		// Lookup throughput: probes alternating between stored and absent
		// fingerprints, so both the positive path (memtable/cache/run) and
		// the negative path (bloom) are on the clock.
		probes := 2 * chunks
		if probes > 2_000_000 {
			probes = 2_000_000
		}
		start = time.Now()
		for i := 0; i < probes/2; i++ {
			if !store.Contains(fpAt(i % chunks)) {
				return fmt.Errorf("%s: stored fingerprint missing", mode)
			}
			if store.Contains(fpAt(chunks + 1 + i)) {
				return fmt.Errorf("%s: absent fingerprint found", mode)
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-8s lookup: %d probes in %v: %.2f Mlookups/s (%v/probe)\n",
			mode, probes, elapsed.Round(time.Millisecond),
			float64(probes)/elapsed.Seconds()/1e6, (elapsed / time.Duration(probes)).Round(time.Nanosecond))
		if st := store.Stats(); mode == "fpindex" {
			fmt.Printf("%-8s counters: %d bloom negatives, %d memtable hits, %d cache hits, %d disk probes\n",
				mode, st.IndexBloomNegative, st.IndexMemtableHits, st.IndexBlockCacheHits, st.IndexDiskProbes)
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runChunker streams a pseudo-random buffer through the content-defined
// chunker in its backup-pipeline configuration (pooled buffers released
// after each chunk, plaintext fingerprinting deferred) and reports the
// ingest throughput and chunk-size distribution. -gear switches to the
// gear-hash format.
func runChunker(streamMB int, gear bool) error {
	if streamMB <= 0 {
		return fmt.Errorf("stream size must be positive")
	}
	data := make([]byte, streamMB<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	params := chunker.DefaultParams()
	params.DeferFingerprint = true
	if gear {
		params.Algorithm = chunker.AlgoGear
	}
	cdc, err := chunker.New(bytes.NewReader(data), params)
	if err != nil {
		return err
	}
	var (
		chunks   int
		minSize  = params.Max + 1
		maxSize  int
		consumed int64
	)
	start := time.Now()
	for {
		ch, err := cdc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		chunks++
		consumed += int64(ch.Size())
		if ch.Size() < minSize {
			minSize = ch.Size()
		}
		if ch.Size() > maxSize {
			maxSize = ch.Size()
		}
		ch.Release()
	}
	elapsed := time.Since(start)
	mb := float64(consumed) / (1 << 20)
	fmt.Printf("chunker (%s): %.0f MiB in %v: %.1f MB/s\n", params.Algorithm, mb, elapsed.Round(time.Millisecond),
		mb/elapsed.Seconds())
	fmt.Printf("chunks: %d (avg %.0f B, min %d, max %d)\n",
		chunks, float64(consumed)/float64(chunks), minSize, maxSize)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddfsbench:", err)
	os.Exit(1)
}
