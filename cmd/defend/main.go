// Command defend is the paper's attack and defense lab: it generates
// backup traces, reproduces the attack (Section 5) and defense (Section 7)
// figures, inspects live repositories built with the freqdedup.Repository
// API, and attacks recorded or generated upload traffic.
//
//	defend gen -list        # enumerate the workload registry
//	defend gen -workload all -out traces/ -tiny  # traces/<workload>.fdt
//	defend -fig 1           # frequency distribution; -fig 4 to 9 and
//	                        # -fig scaling are the attack figures (Sec 5)
//	defend -fig 10          # defense effectiveness vs leakage rate
//	defend -fig 11          # storage saving MLE vs combined
//	defend -fig 13          # metadata access overhead, fingerprint cache
//	                        # too small for the index (Sec 7.4)
//	defend -fig 14          # the same with a cache that holds every
//	                        # fingerprint
//	defend -fig restore     # restore locality: container reads per
//	                        # restore, MLE vs combined (Sec 6.2)
//	defend -fig scenarios   # workload scenario matrix: every registered
//	                        # workload through the full stack (repository
//	                        # backup, upload tap, .fdt replay, attacks)
//	defend -fig scenarios -tiny                # smoke-test scale
//	defend -fig all
//	defend -fig all -dataset repo:/path/to/repository
//	                        # every figure from the repository's replayed
//	                        # .fdt trace logs instead of the generators
//	defend -fig all -dataset workload:teamshare  # or traces/fsl.fdt
//	defend -trace traces/fsl.fdt -scheme combined   # savings on a trace file
//	defend -repo /path/to/repository           # snapshots, savings, verify
//	defend -repo /path/to/repository -key "hunter2..."
//	defend attack -repo /path/to/repository    # the full adversary loop:
//	                        # replay taps, run every attack against every
//	                        # scheme, report inference rates and each
//	                        # run's pairs, stats, wall time and kchunks/s
//	defend attack -repo /path/to/repository -view negotiation
//	                        # same loop on the multi-tenant server's
//	                        # negotiation transcript: what the wire leaks
//	                        # before a single chunk is uploaded
//	defend attack -trace traces/fsl.fdt -attack advanced -aux 2 -target 4
//	defend fsck -repo /path/to/repository      # salvage-open, repair, and
//	                        # report exactly which snapshots lost what
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"freqdedup"
	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			cmd(os.Args[2:])
			return
		}
	}
	figFlag := flag.String("fig", "", "reproduce figures: "+figUsage)
	dataset := flag.String("dataset", "", `figure dataset: empty = built-in generators, "repo:<dir>" = a repository's replayed trace logs, "workload:<name>" = a registered workload, else a trace file written by defend gen`)
	tiny := flag.Bool("tiny", false, "run -fig scenarios at tiny smoke-test scale")
	tracePath := flag.String("trace", "", "trace file to evaluate (single-run mode)")
	schemeName := flag.String("scheme", "combined", "scheme: mle, minhash, or combined")
	repoPath := flag.String("repo", "", "repository directory to inspect (snapshot list, savings, verify)")
	repoKey := flag.String("key", "", "repository key for -repo (raw bytes, zero-padded; empty = zero key)")
	flag.Parse()
	if *figFlag != "" && !validFig(*figFlag) {
		fmt.Fprintf(os.Stderr, "defend: unknown -fig %q (want %s)\n", *figFlag, figUsage)
		os.Exit(2)
	}

	switch {
	case *repoPath != "":
		runRepo(*repoPath, *repoKey)
	case *figFlag != "":
		runFigures(*figFlag, *dataset, *tiny)
	case *tracePath != "":
		runSingle(*tracePath, *schemeName)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// subcommands are the commands named by defend's first argument.
var subcommands = map[string]func([]string){
	"gen":    runGenCmd,
	"attack": runAttackCmd,
	"fsck":   runFsckCmd,
}

// loadDataset resolves a -dataset argument: a repository's replayed
// adversary trace logs ("repo:<dir>"), a registered workload
// ("workload:<name>", generated at its default scale), or a trace file
// written by defend gen. Repository taps need no repository key — the trace log records exactly what the
// adversary observed, which under convergent encryption is a 1-1
// relabeling of the plaintext chunk stream preserving the frequencies,
// sizes, and locality every figure depends on.
func loadDataset(arg string) (*trace.Dataset, error) {
	if dir, ok := strings.CutPrefix(arg, "repo:"); ok {
		return repoDataset(dir, "tap")
	}
	if name, ok := strings.CutPrefix(arg, "workload:"); ok {
		return freqdedup.GenerateWorkload(name, freqdedup.WorkloadConfig{})
	}
	return tracelog.ReadDataset(freqdedup.OSFileSystem, arg)
}

// repoDataset replays one of a repository's two adversary views. "tap"
// is the in-process upload observer (traces.fdt). "negotiation" is the
// wire view a multi-tenant server leaks before any upload: the chunk
// references every session offered during its negotiation rounds
// (negotiation.fdt), with the server-to-client miss streams (the
// "?misses" labels) dropped — the query streams alone carry the
// frequency and locality structure the attacks consume. The log is read
// read-only: the repository may still be live, and an inspection tool
// must neither block it nor truncate an append it has in flight.
func repoDataset(dir, view string) (*trace.Dataset, error) {
	var logPath string
	switch view {
	case "tap":
		logPath = filepath.Join(dir, tracelog.LogName)
	case "negotiation":
		logPath = filepath.Join(dir, freqdedup.NegotiationLogName)
	default:
		return nil, fmt.Errorf("unknown adversary view %q (want tap or negotiation)", view)
	}
	log, err := tracelog.OpenReadOnlyFS(freqdedup.OSFileSystem, logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	d := &trace.Dataset{Name: "repo:" + view}
	for _, tap := range log.Backups() {
		if view == "negotiation" && strings.HasSuffix(tap.Label, freqdedup.NegotiationMissSuffix) {
			continue
		}
		b, err := tap.Materialize()
		if err != nil {
			return nil, err
		}
		d.Backups = append(d.Backups, b)
	}
	if len(d.Backups) == 0 {
		if view == "negotiation" {
			return nil, fmt.Errorf("repository %s has no committed negotiation transcripts (was it ever served over the wire?)", dir)
		}
		return nil, fmt.Errorf("repository %s has no committed backup traces (was it created with the upload observer enabled?)", dir)
	}
	return d, nil
}

// runGenCmd generates workloads from the registry (internal/workload)
// and writes each as <out>/<workload>.fdt, a trace log every -trace and
// -dataset input reads. The registry covers the paper's three evaluation
// datasets (fsl, synthetic, vm) and the modifier-chain scenarios.
func runGenCmd(args []string) {
	fs := flag.NewFlagSet("defend gen", flag.ExitOnError)
	name := fs.String("workload", "all", `workload to generate (see -list), or "all"`)
	list := fs.Bool("list", false, "list the registered workloads and exit")
	out := fs.String("out", ".", "output directory")
	seed := fs.Int64("seed", 0, "generator seed (0 = the workload's default)")
	backups := fs.Int("backups", 0, "backup generations (0 = the workload's default)")
	size := fs.Int("size", 0, "approximate initial logical size in bytes (0 = default)")
	users := fs.Int("users", 0, "parallel user streams (0 = the workload's default)")
	tiny := fs.Bool("tiny", false, "tiny smoke-test scale (3 backups, 2 MiB) unless overridden")
	fs.Parse(args)
	if *list {
		fmt.Println(strings.Join(workload.List(), "\n"))
		return
	}
	cfg := workload.Config{Seed: *seed, Backups: *backups, TotalBytes: *size, Users: *users}
	if *tiny && cfg.Backups == 0 {
		cfg.Backups = 3
	}
	if *tiny && cfg.TotalBytes == 0 {
		cfg.TotalBytes = 2 << 20
	}
	names := workload.List()
	if *name != "all" {
		if _, err := workload.Lookup(*name); err != nil {
			// The lookup error names every available workload.
			fmt.Fprintln(os.Stderr, "defend gen:", err)
			os.Exit(2)
		}
		names = []string{*name}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, n := range names {
		d, err := workload.Generate(n, cfg)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, n+".fdt")
		if err := tracelog.WriteDataset(freqdedup.OSFileSystem, path, d); err != nil {
			fatal(err)
		}
		st := d.Stats()
		fmt.Printf("%s: %d backups, %d chunks (%d unique), %.1fx dedup -> %s\n",
			n, len(d.Backups), st.LogicalChunks, st.UniqueChunks, st.Ratio(), path)
	}
}

// runAttackCmd is the full adversary loop against a real repository or
// a trace file: replay the recorded upload histories (no key — the
// adversary has none), simulate every defense scheme on the target
// backup's stream, and run the attacks in both modes against each,
// reporting inference rates and, per run, the inferred pairs, the walk's
// stats and the attack's own cost, timed around Run only. -view selects
// which adversary a repository loop plays: the in-process upload tap, or
// the wire-level negotiation transcript a multi-tenant server leaks
// before any chunk is uploaded.
func runAttackCmd(args []string) {
	fs := flag.NewFlagSet("defend attack", flag.ExitOnError)
	repoPath := fs.String("repo", "", "repository directory whose trace logs to attack")
	tracePath := fs.String("trace", "", "trace file to attack instead of -repo (written by defend gen)")
	view := fs.String("view", "tap", "adversary view: tap (upload observer) or negotiation (server wire transcript)")
	only := fs.String("attack", "all", "attacks to run: basic, locality, advanced, or all")
	auxIdx := fs.Int("aux", 0, "auxiliary backup trace index")
	targetIdx := fs.Int("target", -1, "target backup trace index (-1 = latest)")
	leakage := fs.Float64("leakage", 0.002, "leakage rate for the known-plaintext rows")
	u := fs.Int("u", 1, "seed pairs from frequency analysis (parameter u)")
	v := fs.Int("v", 15, "pairs per neighbor analysis (parameter v)")
	w := fs.Int("w", 200000, "inferred-set bound (parameter w, 0 = unbounded)")
	fs.Parse(args)
	if (*repoPath == "") == (*tracePath == "") ||
		(*only != "all" && *only != "basic" && *only != "locality" && *only != "advanced") {
		fs.Usage()
		os.Exit(2)
	}
	var d *trace.Dataset
	var err error
	if *repoPath != "" {
		d, err = repoDataset(*repoPath, *view)
	} else {
		d, err = tracelog.ReadDataset(freqdedup.OSFileSystem, *tracePath)
	}
	if err != nil {
		fatal(err)
	}
	if len(d.Backups) < 2 {
		fatal(fmt.Errorf("need at least 2 backup traces to attack, %s has %d", d.Name, len(d.Backups)))
	}
	if *targetIdx < 0 {
		*targetIdx = len(d.Backups) - 1
	}
	if *auxIdx < 0 || *auxIdx >= len(d.Backups) || *targetIdx >= len(d.Backups) {
		fatal(fmt.Errorf("backup trace index out of range (%s has %d traces)", d.Name, len(d.Backups)))
	}
	aux, target := d.Backups[*auxIdx], d.Backups[*targetIdx]

	if *repoPath != "" {
		fmt.Printf("repository %s: %d backup traces replayed (%s view)\n", *repoPath, len(d.Backups), *view)
	} else {
		fmt.Printf("trace %s: dataset %s, %d backup traces (aux index %d, target index %d)\n",
			*tracePath, d.Name, len(d.Backups), *auxIdx, *targetIdx)
	}
	fmt.Printf("aux: %s (%d chunks), target: %s (%d chunks, %d unique)\n\n",
		aux.Label, len(aux.Chunks), target.Label, len(target.Chunks), target.UniqueCount())

	fig := eval.Figure{
		ID:      "defend attack",
		Title:   fmt.Sprintf("inference rates on replayed taps (aux=%s, target=%s, u=%d v=%d w=%d)", aux.Label, target.Label, *u, *v, *w),
		XLabel:  "scheme",
		Percent: true,
	}
	// Encrypt the target once per scheme (the simulations are
	// deterministic at a fixed seed) and draw each scheme's leaked
	// sample once; the mode x attack grid reuses them.
	schemes := []defense.Scheme{defense.SchemeMLE, defense.SchemeMinHash, defense.SchemeCombined}
	encs := make([]defense.Encrypted, len(schemes))
	leaks := make([][]attack.Pair, len(schemes))
	for i, scheme := range schemes {
		fig.X = append(fig.X, scheme.String())
		enc, err := defense.Encrypt(target, scheme, 11)
		if err != nil {
			fatal(err)
		}
		encs[i] = enc
		leaks[i] = attack.SampleLeaked(enc.Backup, enc.Truth, *leakage, 42)
	}
	var runs []string
	for _, mode := range []attack.Mode{attack.CiphertextOnly, attack.KnownPlaintext} {
		cfg := attack.Config{U: *u, V: *v, W: *w, Mode: mode}
		for si, atk := range attack.Suite(cfg) {
			if *only != "all" && *only != atk.Name() {
				continue
			}
			ser := eval.Series{Name: fmt.Sprintf("%s (%s)", atk.Name(), mode)}
			for i, scheme := range schemes {
				runAtk := atk
				if mode == attack.KnownPlaintext {
					// The leaked pairs depend on the scheme's ground
					// truth, so the attack is rebuilt per scheme (same
					// suite slot, scheme-specific config).
					runCfg := cfg
					runCfg.Leaked = leaks[i]
					runAtk = attack.Suite(runCfg)[si]
				}
				start := time.Now()
				res, err := runAtk.Run(attack.BackupSource(encs[i].Backup), attack.BackupSource(aux), attack.Params{})
				wall := time.Since(start)
				if err != nil {
					fatal(err)
				}
				rate := res.InferenceRate(encs[i].Truth)
				ser.Y = append(ser.Y, rate)
				st := res.Stats
				walk := ""
				if atk.Name() != "basic" {
					walk = fmt.Sprintf(", %d seeds, %d iterations, peak queue %d, %d dropped by w",
						st.Seeds, st.Iterations, st.PeakQueue, st.DroppedByW)
				}
				chunks := len(encs[i].Backup.Chunks) + len(aux.Chunks)
				runs = append(runs, fmt.Sprintf("%s on %s: %d pairs%s, inference rate %.4f%%, attack time %.3f s (%d chunks, %.1f kchunks/s)",
					ser.Name, scheme, len(res.Pairs), walk, rate*100, wall.Seconds(), chunks, float64(chunks)/1e3/wall.Seconds()))
			}
			fig.Series = append(fig.Series, ser)
		}
	}
	fig.Notes = append(fig.Notes,
		"schemes are simulated on the tapped (post-encryption) stream; under a convergent repository the tap preserves the plaintext stream's structure exactly",
		fmt.Sprintf("known-plaintext rows use a %.2f%% leakage rate", *leakage*100))
	fig.Notes = append(fig.Notes, runs...)
	fig.Render(os.Stdout)
}

// runFsckCmd is the repository fsck: open in salvage mode (tolerating
// torn tails and corrupt records in the shards and the catalog), run
// Repair, and report the damage in human terms — per-snapshot chunk and
// byte losses, quarantine paths, what the salvage open had to skip.
// Exit status is 0 for a clean repository, 1 when damage was found and
// repaired (like fsck: the repository is consistent again, but data was
// lost), and 2 on usage or hard failure.
func runFsckCmd(args []string) {
	fs := flag.NewFlagSet("defend fsck", flag.ExitOnError)
	repoPath := fs.String("repo", "", "repository directory to check and repair (required)")
	repoKey := fs.String("key", "", "repository key (raw bytes, zero-padded; empty = zero key)")
	verify := fs.Bool("verify", true, "run a full Verify after the repair")
	fs.Parse(args)
	if *repoPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	var key freqdedup.Key
	copy(key[:], *repoKey)
	repo, err := freqdedup.OpenRepository(*repoPath,
		freqdedup.WithRepositoryKey(key),
		freqdedup.WithSalvage(),
		freqdedup.WithDegradedRestore())
	if err != nil {
		fatal(err)
	}
	defer repo.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := repo.Repair(ctx)
	if err != nil {
		fatal(fmt.Errorf("repair: %w", err))
	}
	if rep.SalvageContainersLost > 0 || rep.SalvageBytesSkipped > 0 {
		fmt.Printf("salvage: skipped %d unreadable container record(s), %d byte(s) of damaged shard data\n",
			rep.SalvageContainersLost, rep.SalvageBytesSkipped)
	}
	if rep.CatalogRecordsDropped > 0 || rep.CatalogBytesSkipped > 0 {
		fmt.Printf("salvage: dropped %d unreadable snapshot record(s), %d byte(s) of damaged catalog data\n",
			rep.CatalogRecordsDropped, rep.CatalogBytesSkipped)
	}
	if rep.ContainersQuarantined > 0 {
		fmt.Printf("quarantined %d corrupt container(s):\n", rep.ContainersQuarantined)
		for _, p := range rep.QuarantinePaths {
			fmt.Printf("  %s\n", p)
		}
	}
	if rep.ChunksLost > 0 {
		fmt.Printf("lost %d unique chunk(s), %.2f MB ciphertext\n",
			rep.ChunksLost, float64(rep.BytesLost)/(1<<20))
	}
	for _, s := range rep.Snapshots {
		if s.RecipeUnreadable {
			fmt.Printf("snapshot %-24s UNRESTORABLE (recipe unreadable: corrupt record or wrong key)\n", s.Name)
			continue
		}
		fmt.Printf("snapshot %-24s degraded: %d/%d chunks lost (%.2f MB); restores zero-fill the lost ranges\n",
			s.Name, s.ChunksLost, s.TotalChunks, float64(s.BytesLost)/(1<<20))
	}
	if *verify {
		switch err := repo.Verify(ctx); {
		case err == nil:
			fmt.Println("verify: OK (checksums, fingerprints, and every snapshot's references)")
		case len(rep.Snapshots) > 0:
			// Damaged snapshots reference chunks the store no longer holds;
			// Verify reporting exactly that is the repair being honest, not
			// a repair failure.
			fmt.Printf("verify: reports the known damage: %v\n", err)
		default:
			fatal(fmt.Errorf("post-repair verify: %w", err))
		}
	}
	if !rep.Damaged() {
		fmt.Printf("repository %s: clean — nothing to repair\n", *repoPath)
		return
	}
	fmt.Printf("repository %s: repaired and consistent; %d snapshot(s) damaged\n",
		*repoPath, len(rep.Snapshots))
	os.Exit(1)
}

// runRepo opens a repository read-only-in-spirit (nothing is mutated) and
// reports what retention and dedup have achieved: the sorted snapshot
// list with sizes and chunk counts, the storage saving, and a full
// Verify. Ctrl-C cancels a long verify through its context.
func runRepo(path, keyStr string) {
	var key freqdedup.Key
	copy(key[:], keyStr)
	repo, err := freqdedup.OpenRepository(path, freqdedup.WithRepositoryKey(key))
	if err != nil {
		fatal(err)
	}
	defer repo.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	snaps := repo.Snapshots()
	fmt.Printf("repository %s: %d snapshot(s)\n", path, len(snaps))
	for _, s := range snaps {
		fmt.Printf("  %-24s %10.2f MB %8d chunks  %s\n",
			s.Name, float64(s.LogicalBytes)/(1<<20), s.Chunks,
			s.CreatedAt.Format(time.RFC3339))
	}
	st := repo.Stats()
	fmt.Printf("dedup: %d logical chunks, %d unique, %.2f MB physical (saving %.1f%%)\n",
		st.LogicalChunks, st.UniqueChunks, float64(st.PhysicalBytes)/(1<<20), st.Saving()*100)
	start := time.Now()
	if err := repo.Verify(ctx); err != nil {
		fatal(err)
	}
	fmt.Printf("verify: OK in %v (checksums, fingerprints, and every snapshot's references)\n",
		time.Since(start).Round(time.Millisecond))
}

// figures are the -fig values drawn from the evaluation datasets, in the
// order -fig all renders them (after the scenario matrix).
var figures = []struct {
	name string
	run  func(eval.Datasets) ([]eval.Figure, error)
}{
	{"1", infallible(eval.Fig1FrequencyDistribution)},
	{"4", infallible(eval.Fig4ParamSweep)},
	{"5", infallible(eval.Fig5VaryAux)},
	{"6", infallible(eval.Fig6VaryTarget)},
	{"7", infallible(eval.Fig7SlidingWindow)},
	{"8", infallible(func(ds eval.Datasets) []eval.Figure { return []eval.Figure{eval.Fig8KnownPlaintext(ds)} })},
	{"9", infallible(eval.Fig9KPVaryAux)},
	{"scaling", infallible(func(ds eval.Datasets) []eval.Figure { return []eval.Figure{eval.AttackScaling(ds.FSL)} })},
	{"10", eval.Fig10Defense},
	{"11", eval.Fig11StorageSaving},
	{"ablations", func(ds eval.Datasets) ([]eval.Figure, error) {
		a1, err := eval.AblationDefenseComponents(ds)
		if err != nil {
			return nil, err
		}
		a2, err := eval.AblationSegmentSize(ds)
		if err != nil {
			return nil, err
		}
		return []eval.Figure{a1, a2, eval.AblationTieBreaking(ds)}, nil
	}},
	{"13", eval.Fig13Metadata512},
	{"14", eval.Fig14Metadata4G},
	{"restore", func(ds eval.Datasets) ([]eval.Figure, error) {
		f, err := eval.RestoreLocality(ds)
		return []eval.Figure{f}, err
	}},
}

// infallible adapts an attack-figure runner, which cannot fail, to the
// figures table.
func infallible(run func(eval.Datasets) []eval.Figure) func(eval.Datasets) ([]eval.Figure, error) {
	return func(ds eval.Datasets) ([]eval.Figure, error) { return run(ds), nil }
}

const figUsage = "1, 4, 5, 6, 7, 8, 9, scaling, 10, 11, ablations, 13, 14, restore, scenarios, or all"

func validFig(which string) bool {
	if which == "scenarios" || which == "all" {
		return true
	}
	for _, f := range figures {
		if f.name == which {
			return true
		}
	}
	return false
}

func runFigures(which, dataset string, tiny bool) {
	all := which == "all"
	if all || which == "scenarios" {
		runScenarioMatrix(tiny)
		if !all {
			return
		}
	}
	var ds eval.Datasets
	if dataset == "" {
		ds = eval.Generate()
	} else {
		d, err := loadDataset(dataset)
		if err != nil {
			fatal(err)
		}
		// One real dataset fills every evaluation slot; the figure
		// runners deduplicate, so each figure is produced once.
		ds = eval.SingleDataset(d)
	}
	for _, f := range figures {
		if !all && which != f.name {
			continue
		}
		figs, err := f.run(ds)
		if err != nil {
			fatal(err)
		}
		for i := range figs {
			figs[i].Render(os.Stdout)
		}
	}
}

// runScenarioMatrix runs every registered workload through the full
// pipeline — generation, repository backup, upload-tap replay, attacks
// against every defense scheme — and renders the per-scenario
// inference-rate matrix.
func runScenarioMatrix(tiny bool) {
	opt := freqdedup.ScenarioOptions{}
	if tiny {
		// Smoke scale: the matrix must run end to end quickly; the rates
		// at this scale are indicative only (the multi-user adapters get
		// very small per-user streams).
		opt.Config = freqdedup.WorkloadConfig{Seed: 42, Backups: 3, TotalBytes: 4 << 20, Users: 5}
	}
	fig, err := freqdedup.ScenarioMatrix(opt)
	if err != nil {
		fatal(err)
	}
	fig.Render(os.Stdout)
}

func runSingle(path, schemeName string) {
	d, err := tracelog.ReadDataset(freqdedup.OSFileSystem, path)
	if err != nil {
		fatal(err)
	}
	var scheme defense.Scheme
	switch schemeName {
	case "mle":
		scheme = defense.SchemeMLE
	case "minhash":
		scheme = defense.SchemeMinHash
	case "combined":
		scheme = defense.SchemeCombined
	default:
		fatal(fmt.Errorf("unknown scheme %q", schemeName))
	}
	savings, err := defense.StorageSavings(d, scheme, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s, scheme: %s\n", d.Name, scheme)
	for i, b := range d.Backups {
		fmt.Printf("  after %-8s storage saving %.2f%%\n", b.Label+":", savings[i]*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "defend:", err)
	os.Exit(1)
}
