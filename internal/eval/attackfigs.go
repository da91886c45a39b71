package eval

import (
	"fmt"

	"freqdedup/internal/attack"
	"freqdedup/internal/trace"
)

// Fig1FrequencyDistribution reproduces Figure 1: the frequency distribution
// of chunks with duplicate content in the FSL and VM datasets, reported as
// the chunk frequency at selected CDF positions plus the paper's headline
// statistics (fraction of chunks occurring fewer than 100 times; count of
// chunks occurring more than the 99.99th-percentile threshold).
func Fig1FrequencyDistribution(ds Datasets) []Figure {
	var out []Figure
	for _, d := range distinct(ds.FSL, ds.VM) {
		freqs := d.FrequencyCDF() // ascending
		n := len(freqs)
		positions := []float64{0.50, 0.90, 0.99, 0.999, 0.9999, 1.0}
		fig := Figure{
			ID:     "Fig 1 (" + d.Name + ")",
			Title:  "frequency distribution of chunks with duplicate content",
			XLabel: "CDF of chunks",
		}
		var x []string
		var y []float64
		for _, p := range positions {
			x = append(x, fmt.Sprintf("%.4g", p))
			y = append(y, float64(freqs[cdfIndex(p, n)]))
		}
		fig.X = x
		fig.Series = []Series{{Name: "frequency", Y: y}}

		var under100, over int
		head := freqs[n-1] / 2 // "heavy head" threshold: half the max
		if head < 2 {
			head = 2
		}
		for _, f := range freqs {
			if f < 100 {
				under100++
			}
			if f > head {
				over++
			}
		}
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%.2f%% of chunks occur fewer than 100 times; %d of %d chunks exceed half the max frequency %d",
				100*float64(under100)/float64(n), over, n, freqs[n-1]))
		out = append(out, fig)
	}
	return out
}

// cdfIndex maps a CDF position p in (0, 1] to an index into an ascending
// n-element frequency list: the chunk at CDF position (i+1)/n is element
// i, so p selects round(p*n)-1, clamped into range. Rounding is
// half-up — flooring would skew small-n figures badly (p=0.50 of n=3
// floored to index 0, the minimum instead of the median).
func cdfIndex(p float64, n int) int {
	idx := int(p*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// fig4Setups returns the (dataset, aux, target) pairs Figure 4 sweeps on:
// FSL Mar 22 -> May 21 and VM week 12 -> 13.
func fig4Setups(ds Datasets) []struct {
	name        string
	aux, target *trace.Backup
} {
	// Indices are clamped so the same setups work on reduced test
	// datasets and short repository histories.
	at := func(d *trace.Dataset, i int) *trace.Backup {
		if i < 0 {
			i = 0
		}
		return d.Backups[i]
	}
	nf, nv := len(ds.FSL.Backups), len(ds.VM.Backups)
	return []struct {
		name        string
		aux, target *trace.Backup
	}{
		{"FSL", at(ds.FSL, nf-3), at(ds.FSL, nf-1)},
		{"VM", at(ds.VM, nv-2), at(ds.VM, nv-1)},
	}
}

// Fig4ParamSweep reproduces Figure 4: the impact of u, v, and w on the
// locality-based attack (ciphertext-only mode).
func Fig4ParamSweep(ds Datasets) []Figure {
	uValues := []int{1, 3, 5, 7, 10, 13, 15, 17, 20}
	vValues := []int{5, 10, 15, 20, 25, 30, 35, 40}
	// w scaled: the paper sweeps 50k..200k on ~30M-chunk backups; these
	// values sweep the same "binding -> plateau" range on our streams.
	wValues := []int{100, 250, 500, 1000, 2500, 5000, 20000}

	setups := fig4Setups(ds)
	sweep := func(id, xlabel string, xs []int, mk func(x int) attack.Config) Figure {
		fig := Figure{ID: id, Title: "locality-based attack inference rate vs " + xlabel,
			XLabel: xlabel, Percent: true}
		for _, x := range xs {
			fig.X = append(fig.X, fmt.Sprintf("%d", x))
		}
		for _, s := range setups {
			ser := Series{Name: s.name}
			for _, x := range xs {
				ser.Y = append(ser.Y, runAttack(attackLocality, s.aux, s.target, mk(x)))
			}
			fig.Series = append(fig.Series, ser)
		}
		return fig
	}

	return []Figure{
		sweep("Fig 4(a)", "u", uValues, func(u int) attack.Config {
			return attack.Config{U: u, V: 20, W: 10000}
		}),
		sweep("Fig 4(b)", "v", vValues, func(v int) attack.Config {
			return attack.Config{U: 10, V: v, W: 10000}
		}),
		sweep("Fig 4(c)", "w", wValues, func(w int) attack.Config {
			return attack.Config{U: 10, V: 20, W: w}
		}),
	}
}

// Fig5VaryAux reproduces Figure 5: inference rate in ciphertext-only mode
// with varying auxiliary backups against the fixed latest backup.
func Fig5VaryAux(ds Datasets) []Figure {
	var out []Figure
	for _, d := range ds.list() {
		n := len(d.Backups)
		target := d.Backups[n-1]
		fig := Figure{
			ID:      "Fig 5 (" + d.Name + ")",
			Title:   "inference rate, ciphertext-only, varying auxiliary backup (target = " + target.Label + ")",
			XLabel:  "auxiliary backup",
			Percent: true,
		}
		kinds := []attackKind{attackBasic, attackLocality, attackAdvanced}
		if d == ds.VM {
			// Fixed-size chunks: advanced == locality (Section 5.3.2).
			kinds = []attackKind{attackBasic, attackLocality}
			fig.Notes = append(fig.Notes, "advanced == locality for fixed-size chunks")
		}
		series := make([]Series, len(kinds))
		for i, k := range kinds {
			series[i].Name = k.String()
		}
		for a := 0; a < n-1; a++ {
			aux := d.Backups[a]
			fig.X = append(fig.X, aux.Label)
			for i, k := range kinds {
				series[i].Y = append(series[i].Y, runAttack(k, aux, target, ctOnlyConfig()))
			}
		}
		fig.Series = series
		out = append(out, fig)
	}
	return out
}

// Fig6VaryTarget reproduces Figure 6: inference rate in ciphertext-only
// mode with the first backup as auxiliary information and varying target
// backups.
func Fig6VaryTarget(ds Datasets) []Figure {
	var out []Figure
	for _, d := range ds.list() {
		aux := d.Backups[0]
		fig := Figure{
			ID:      "Fig 6 (" + d.Name + ")",
			Title:   "inference rate, ciphertext-only, varying target backup (aux = " + aux.Label + ")",
			XLabel:  "target backup",
			Percent: true,
		}
		kinds := []attackKind{attackBasic, attackLocality, attackAdvanced}
		if d == ds.VM {
			kinds = []attackKind{attackBasic, attackLocality}
			fig.Notes = append(fig.Notes, "advanced == locality for fixed-size chunks")
		}
		series := make([]Series, len(kinds))
		for i, k := range kinds {
			series[i].Name = k.String()
		}
		for t := 1; t < len(d.Backups); t++ {
			target := d.Backups[t]
			fig.X = append(fig.X, target.Label)
			for i, k := range kinds {
				series[i].Y = append(series[i].Y, runAttack(k, aux, target, ctOnlyConfig()))
			}
		}
		fig.Series = series
		out = append(out, fig)
	}
	return out
}

// Fig7SlidingWindow reproduces Figure 7: inference rate over a sliding
// window — auxiliary backup t, target backup t+s.
func Fig7SlidingWindow(ds Datasets) []Figure {
	var out []Figure
	type spec struct {
		d     *trace.Dataset
		steps []int
		adv   bool
	}
	seen := make(map[*trace.Dataset]bool)
	for _, sp := range []spec{
		{ds.FSL, []int{1, 2}, true},
		{ds.Synthetic, []int{1, 2}, true},
		{ds.VM, []int{1, 2, 3}, false},
	} {
		if seen[sp.d] {
			continue // single-dataset bundle: one figure, not three
		}
		seen[sp.d] = true
		d := sp.d
		n := len(d.Backups)
		fig := Figure{
			ID:      "Fig 7 (" + d.Name + ")",
			Title:   "inference rate over a sliding window (aux = t, target = t+s)",
			XLabel:  "auxiliary backup",
			Percent: true,
		}
		for t := 0; t < n-1; t++ {
			fig.X = append(fig.X, d.Backups[t].Label)
		}
		for _, s := range sp.steps {
			loc := Series{Name: fmt.Sprintf("s=%d", s)}
			adv := Series{Name: fmt.Sprintf("s=%d (Advanced)", s)}
			for t := 0; t < n-1; t++ {
				if t+s >= n {
					break
				}
				aux, target := d.Backups[t], d.Backups[t+s]
				loc.Y = append(loc.Y, runAttack(attackLocality, aux, target, ctOnlyConfig()))
				if sp.adv {
					adv.Y = append(adv.Y, runAttack(attackAdvanced, aux, target, ctOnlyConfig()))
				}
			}
			fig.Series = append(fig.Series, loc)
			if sp.adv {
				fig.Series = append(fig.Series, adv)
			}
		}
		if !sp.adv {
			fig.Notes = append(fig.Notes, "advanced == locality for fixed-size chunks")
		}
		out = append(out, fig)
	}
	return out
}

// fig8Setups returns the fixed (aux, target) pairs of Section 5.3.3: FSL
// Mar 22 -> May 21, synthetic 0 -> 5, VM 9 -> 13. Indices are clamped so
// the same setups work on reduced test datasets.
func fig8Setups(ds Datasets) []struct {
	name        string
	aux, target *trace.Backup
	adv         bool
} {
	at := func(d *trace.Dataset, i int) *trace.Backup {
		if i < 0 {
			i = 0
		}
		if i >= len(d.Backups) {
			i = len(d.Backups) - 1
		}
		return d.Backups[i]
	}
	return []struct {
		name        string
		aux, target *trace.Backup
		adv         bool
	}{
		{"FSL", at(ds.FSL, len(ds.FSL.Backups)-3), at(ds.FSL, len(ds.FSL.Backups)-1), true},
		{"Synthetic", at(ds.Synthetic, 0), at(ds.Synthetic, 5), true},
		{"VM", at(ds.VM, len(ds.VM.Backups)-5), at(ds.VM, len(ds.VM.Backups)-1), false},
	}
}

// LeakageRates are the leakage rates swept by Figures 8 and 10.
var LeakageRates = []float64{0, 0.0005, 0.001, 0.0015, 0.002}

// Fig8KnownPlaintext reproduces Figure 8: inference rate in
// known-plaintext mode for varying leakage rates.
func Fig8KnownPlaintext(ds Datasets) Figure {
	fig := Figure{
		ID:      "Fig 8",
		Title:   "inference rate, known-plaintext mode, varying leakage rate",
		XLabel:  "leakage rate",
		Percent: true,
	}
	for _, r := range LeakageRates {
		fig.X = append(fig.X, fmt.Sprintf("%.2f%%", r*100))
	}
	for _, s := range fig8Setups(ds) {
		loc := Series{Name: s.name + " (Locality)"}
		adv := Series{Name: s.name + " (Advanced)"}
		for _, r := range LeakageRates {
			leaked := leakFor(s.target, r)
			loc.Y = append(loc.Y, runAttack(attackLocality, s.aux, s.target, kpConfig(leaked)))
			if s.adv {
				adv.Y = append(adv.Y, runAttack(attackAdvanced, s.aux, s.target, kpConfig(leaked)))
			}
		}
		fig.Series = append(fig.Series, loc)
		if s.adv {
			fig.Series = append(fig.Series, adv)
		} else {
			fig.Notes = append(fig.Notes, s.name+": advanced == locality for fixed-size chunks")
		}
	}
	return fig
}

// Fig9KPVaryAux reproduces Figure 9: known-plaintext mode with a fixed
// 0.05% leakage rate and varying auxiliary backups.
func Fig9KPVaryAux(ds Datasets) []Figure {
	const leakRate = 0.0005
	var out []Figure
	for _, d := range ds.list() {
		n := len(d.Backups)
		target := d.Backups[n-1]
		if d == ds.Synthetic && n > 5 {
			target = d.Backups[5] // Section 5.3.3 uses the 5th snapshot
		}
		leaked := leakFor(target, leakRate)
		fig := Figure{
			ID:      "Fig 9 (" + d.Name + ")",
			Title:   fmt.Sprintf("inference rate, known-plaintext (leakage %.2f%%), varying auxiliary backup (target = %s)", leakRate*100, target.Label),
			XLabel:  "auxiliary backup",
			Percent: true,
		}
		kinds := []attackKind{attackLocality, attackAdvanced}
		if d == ds.VM {
			kinds = []attackKind{attackLocality}
			fig.Notes = append(fig.Notes, "advanced == locality for fixed-size chunks")
		}
		series := make([]Series, len(kinds))
		for i, k := range kinds {
			series[i].Name = k.String()
		}
		for a := 0; a < n; a++ {
			if d.Backups[a] == target {
				break
			}
			aux := d.Backups[a]
			fig.X = append(fig.X, aux.Label)
			for i, k := range kinds {
				series[i].Y = append(series[i].Y, runAttack(k, aux, target, kpConfig(leaked)))
			}
		}
		fig.Series = series
		out = append(out, fig)
	}
	return out
}

// AttackScaling reports how many pairs the ciphertext-only locality
// attack infers as the target stream grows (the first quarter, half and
// all of d's MLE-encrypted latest backup against its second-last backup;
// Section 5.2's performance discussion). It records inferred pairs only, not time: the
// attack's cost is the wall time and kchunks/s that `defend attack -trace`
// prints per run, timed around Run alone.
func AttackScaling(d *trace.Dataset) Figure {
	fig := Figure{
		ID:     "Sec 5.2",
		Title:  "locality attack: inferred pairs vs stream length (aux = second-last backup)",
		XLabel: "chunks in target stream",
	}
	n := len(d.Backups)
	aux, target := d.Backups[n-2], d.Backups[n-1]
	enc := encryptMLE(target)
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		cut := int(float64(len(enc.Backup.Chunks)) * frac)
		sub := &trace.Backup{Label: target.Label, Chunks: enc.Backup.Chunks[:cut]}
		res, err := attack.NewLocality(ctOnlyConfig()).Run(attack.BackupSource(sub), attack.BackupSource(aux), attack.Params{})
		if err != nil {
			panic(err)
		}
		fig.X = append(fig.X, fmt.Sprintf("%d", cut))
		if len(fig.Series) == 0 {
			fig.Series = append(fig.Series, Series{Name: "inferred pairs"})
		}
		fig.Series[0].Y = append(fig.Series[0].Y, float64(len(res.Pairs)))
	}
	return fig
}
