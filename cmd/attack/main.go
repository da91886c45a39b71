// Command attack runs the paper's inference attacks.
//
// Two modes of use:
//
//   - Reproduce the attack-evaluation figures (Section 5) on the built-in
//     datasets:
//
//     attack -fig 5        # Figure 5 (varying auxiliary backups)
//     attack -fig all      # every attack figure
//
//   - Run a single attack on a trace file written by tracegen. It prints
//     the inferred pairs, the inference rate, and the attack's own wall
//     time and throughput (kchunks/s over both streams, timed around the
//     attack's Run only):
//
//     attack -trace fsl.trace -attack advanced -aux 2 -target 4
//     attack -trace fsl.trace -attack locality -leakage 0.002
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/trace"
)

func main() {
	figFlag := flag.String("fig", "", "reproduce figures: "+figUsage)
	tracePath := flag.String("trace", "", "trace file to attack (single-run mode)")
	attackName := flag.String("attack", "locality", "attack: basic, locality, or advanced")
	auxIdx := flag.Int("aux", 0, "auxiliary backup index")
	targetIdx := flag.Int("target", -1, "target backup index (-1 = latest)")
	leakage := flag.Float64("leakage", 0, "leakage rate for known-plaintext mode (e.g. 0.002)")
	u := flag.Int("u", 1, "seed pairs from frequency analysis (parameter u)")
	v := flag.Int("v", 15, "pairs per neighbor analysis (parameter v)")
	w := flag.Int("w", 200000, "inferred-set bound (parameter w, 0 = unbounded)")
	flag.Parse()
	if *figFlag != "" && !validFig(*figFlag) {
		fmt.Fprintf(os.Stderr, "attack: unknown -fig %q (want %s)\n", *figFlag, figUsage)
		os.Exit(2)
	}

	switch {
	case *figFlag != "":
		runFigures(*figFlag)
	case *tracePath != "":
		runSingle(*tracePath, *attackName, *auxIdx, *targetIdx, *leakage, *u, *v, *w)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// figures are the -fig values, in the order -fig all renders them.
var figures = []struct {
	name string
	run  func(eval.Datasets) []eval.Figure
}{
	{"1", eval.Fig1FrequencyDistribution},
	{"4", eval.Fig4ParamSweep},
	{"5", eval.Fig5VaryAux},
	{"6", eval.Fig6VaryTarget},
	{"7", eval.Fig7SlidingWindow},
	{"8", func(ds eval.Datasets) []eval.Figure { return []eval.Figure{eval.Fig8KnownPlaintext(ds)} }},
	{"9", eval.Fig9KPVaryAux},
	{"scaling", func(ds eval.Datasets) []eval.Figure { return []eval.Figure{eval.AttackScaling(ds.FSL)} }},
}

const figUsage = "1, 4, 5, 6, 7, 8, 9, scaling, or all"

func validFig(which string) bool {
	for _, f := range figures {
		if f.name == which {
			return true
		}
	}
	return which == "all"
}

func runFigures(which string) {
	ds := eval.Generate()
	for _, f := range figures {
		if which != "all" && which != f.name {
			continue
		}
		figs := f.run(ds)
		for i := range figs {
			figs[i].Render(os.Stdout)
		}
	}
}

func runSingle(path, attackName string, auxIdx, targetIdx int, leakage float64, u, v, w int) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	d, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if targetIdx < 0 {
		targetIdx = len(d.Backups) - 1
	}
	if auxIdx < 0 || auxIdx >= len(d.Backups) || targetIdx >= len(d.Backups) {
		fatal(fmt.Errorf("backup index out of range (dataset has %d backups)", len(d.Backups)))
	}
	aux, target := d.Backups[auxIdx], d.Backups[targetIdx]

	enc := defense.EncryptMLE(target)
	cfg := attack.Config{U: u, V: v, W: w, Mode: attack.CiphertextOnly}
	if leakage > 0 {
		cfg.Mode = attack.KnownPlaintext
		cfg.Leaked = attack.SampleLeaked(enc.Backup, enc.Truth, leakage, 42)
	}

	var atk attack.Attack
	switch attackName {
	case "basic":
		atk = attack.NewBasic(cfg)
	case "locality":
		atk = attack.NewLocality(cfg)
	case "advanced":
		atk = attack.NewAdvanced(cfg)
	default:
		fatal(fmt.Errorf("unknown attack %q", attackName))
	}
	start := time.Now()
	res, err := atk.Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
	wall := time.Since(start)
	if err != nil {
		fatal(err)
	}
	pairs, stats := res.Pairs, res.Stats

	rate := res.InferenceRate(enc.Truth)
	fmt.Printf("dataset:   %s\n", d.Name)
	fmt.Printf("aux:       %s (index %d)\n", aux.Label, auxIdx)
	fmt.Printf("target:    %s (index %d, %d unique ciphertext chunks)\n",
		target.Label, targetIdx, enc.Backup.UniqueCount())
	fmt.Printf("attack:    %s (%s, u=%d v=%d w=%d leakage=%.3f%%)\n",
		attackName, cfg.Mode, u, v, w, leakage*100)
	fmt.Printf("inferred:  %d pairs\n", len(pairs))
	if attackName != "basic" {
		fmt.Printf("run stats: %d seeds, %d iterations, peak queue %d, %d dropped by w\n",
			stats.Seeds, stats.Iterations, stats.PeakQueue, stats.DroppedByW)
	}
	fmt.Printf("inference rate: %.4f%%\n", rate*100)
	// The attack's own cost: both streams counted and walked, timed
	// around Run only (not trace loading or the MLE simulation).
	chunks := len(enc.Backup.Chunks) + len(aux.Chunks)
	fmt.Printf("attack time: %.3f s (%d chunks, %.1f kchunks/s)\n",
		wall.Seconds(), chunks, float64(chunks)/1e3/wall.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "attack:", err)
	os.Exit(1)
}
