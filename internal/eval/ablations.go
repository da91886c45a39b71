package eval

import (
	"fmt"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/fphash"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

// AblationDefenseComponents decomposes the combined defense on the FSL
// setup of Figure 10 (known-plaintext, 0.2% leakage, advanced attack):
// baseline MLE, RCE (randomized bodies, deterministic tags — Section 8),
// scrambling alone, MinHash alone, and the combined scheme.
func AblationDefenseComponents(ds Datasets) (Figure, error) {
	s := fig8Setups(ds)[0] // FSL
	const leakage = 0.002
	fig := Figure{
		ID:      "Ablation A1",
		Title:   "defense components vs advanced attack (FSL, known-plaintext, 0.2% leakage)",
		XLabel:  "scheme",
		Percent: true,
	}
	ser := Series{Name: "inference rate"}
	for _, scheme := range []defense.Scheme{
		defense.SchemeMLE,
		defense.SchemeRCE,
		defense.SchemeScrambleOnly,
		defense.SchemeMinHash,
		defense.SchemeCombined,
	} {
		enc, err := defense.Encrypt(s.target, scheme, 7)
		if err != nil {
			return Figure{}, err
		}
		cfg := kpConfig(leakSame(s.target, enc, leakage, 23))
		cfg.SizeAware = true
		rate := runAttackOn(attackLocality, s.aux, enc, cfg)
		fig.X = append(fig.X, scheme.String())
		ser.Y = append(ser.Y, rate)
	}
	fig.Series = []Series{ser}
	fig.Notes = append(fig.Notes,
		"RCE's deterministic dedup tags leak exactly like MLE; scrambling alone already breaks the locality walk but leaves the frequency distribution exposed")
	return fig, nil
}

// AblationSegmentSize sweeps the defense's segment size on FSL, reporting
// both sides of the trade-off: the combined scheme's inference rate (same
// attack as Figure 10 at 0.2% leakage) and its storage-saving loss versus
// MLE. Larger segments re-key fewer chunks per churn event (cheaper) but
// scramble over wider windows (also stronger defense); at laptop scale the
// dominant effect is the dedup cost.
func AblationSegmentSize(ds Datasets) (Figure, error) {
	s := fig8Setups(ds)[0] // FSL
	const leakage = 0.002
	sweeps := []segment.Params{
		{MinBytes: 32 << 10, AvgBytes: 64 << 10, MaxBytes: 128 << 10},
		{MinBytes: 64 << 10, AvgBytes: 128 << 10, MaxBytes: 256 << 10},
		{MinBytes: 128 << 10, AvgBytes: 256 << 10, MaxBytes: 512 << 10},
		{MinBytes: 512 << 10, AvgBytes: 1 << 20, MaxBytes: 2 << 20}, // paper's absolute sizes
	}
	fig := Figure{
		ID:      "Ablation A2",
		Title:   "combined scheme vs segment size (FSL): inference rate and dedup loss",
		XLabel:  "segment min/avg/max",
		Percent: true,
	}
	rateSer := Series{Name: "inference rate"}
	lossSer := Series{Name: "saving loss vs MLE"}

	mleSav, err := defense.StorageSavings(ds.FSL, defense.SchemeMLE, 1)
	if err != nil {
		return Figure{}, err
	}
	mleFinal := mleSav[len(mleSav)-1]

	for _, sp := range sweeps {
		opt := defense.Options{Segments: sp, Scramble: true, Seed: 7}
		enc, err := defense.EncryptMinHash(s.target, opt)
		if err != nil {
			return Figure{}, err
		}
		cfg := kpConfig(leakSame(s.target, enc, leakage, 23))
		cfg.SizeAware = true
		rate := runAttackOn(attackLocality, s.aux, enc, cfg)

		saving, err := combinedSavingWith(ds, opt)
		if err != nil {
			return Figure{}, err
		}
		fig.X = append(fig.X, fmt.Sprintf("%dK/%dK/%dK", sp.MinBytes>>10, sp.AvgBytes>>10, sp.MaxBytes>>10))
		rateSer.Y = append(rateSer.Y, rate)
		lossSer.Y = append(lossSer.Y, mleFinal-saving)
	}
	fig.Series = []Series{rateSer, lossSer}
	return fig, nil
}

// leakSame draws the leaked pairs for one encryption of target so that
// every scheme leaks the same plaintext chunks: the sample is MLE's
// (attack.SampleLeaked over the MLE ciphertexts, in its order), and each
// sampled plaintext is paired with the ciphertext at its first position in
// enc's recipe order. Sampling each scheme's own ciphertexts instead would
// leak different chunks per scheme, and a comparison across schemes would
// measure the samples rather than the schemes.
func leakSame(target *trace.Backup, enc defense.Encrypted, rate float64, seed int64) []attack.Pair {
	mle := encryptMLE(target)
	sample := attack.SampleLeaked(mle.Backup, mle.Truth, rate, seed)
	first := make(map[fphash.Fingerprint]fphash.Fingerprint, len(sample))
	for _, p := range sample {
		first[p.M] = fphash.Fingerprint{}
	}
	for _, ch := range enc.RecipeOrder {
		m := enc.Truth[ch.FP]
		if c, ok := first[m]; ok && c.IsZero() {
			first[m] = ch.FP
		}
	}
	out := make([]attack.Pair, 0, len(sample))
	for _, p := range sample {
		if c := first[p.M]; !c.IsZero() {
			out = append(out, attack.Pair{C: c, M: p.M})
		}
	}
	return out
}

// combinedSavingWith computes the FSL dataset's final cumulative saving
// under the combined scheme with explicit options.
func combinedSavingWith(ds Datasets, opt defense.Options) (float64, error) {
	stored := make(map[fphash.Fingerprint]struct{})
	var logical, physical uint64
	for i, b := range ds.FSL.Backups {
		o := opt
		o.Seed = opt.Seed + int64(i)
		enc, err := defense.EncryptMinHash(b, o)
		if err != nil {
			return 0, err
		}
		for _, c := range enc.Backup.Chunks {
			logical += uint64(c.Size)
			if _, ok := stored[c.FP]; !ok {
				stored[c.FP] = struct{}{}
				physical += uint64(c.Size)
			}
		}
	}
	return 1 - float64(physical)/float64(logical), nil
}

// AblationTieBreaking quantifies the attack-implementation choice
// behind attack.Config.ArbitraryTies: breaking per-neighbor frequency ties by
// first stream position versus arbitrarily (by fingerprint), on the
// ciphertext-only locality attack.
func AblationTieBreaking(ds Datasets) Figure {
	fig := Figure{
		ID:      "Ablation A3",
		Title:   "neighbor tie-breaking: first-position vs arbitrary (ciphertext-only locality attack)",
		XLabel:  "dataset",
		Percent: true,
	}
	pos := Series{Name: "position ties"}
	arb := Series{Name: "arbitrary ties"}
	for _, s := range fig4Setups(ds) {
		cfg := ctOnlyConfig()
		pos.Y = append(pos.Y, runAttack(attackLocality, s.aux, s.target, cfg))
		cfg.ArbitraryTies = true
		arb.Y = append(arb.Y, runAttack(attackLocality, s.aux, s.target, cfg))
		fig.X = append(fig.X, s.name)
	}
	fig.Series = []Series{pos, arb}
	fig.Notes = append(fig.Notes,
		"stream position is adversary-observable; discarding it (arbitrary ties) weakens the walk across equal-count neighbor sets")
	return fig
}
