package eval

import (
	"fmt"

	"freqdedup/internal/ddfs"
	"freqdedup/internal/defense"
	"freqdedup/internal/trace"
)

// MetadataResult is the per-backup metadata access volume of one scheme
// under the DDFS-like prototype.
type MetadataResult struct {
	Scheme   defense.Scheme
	PerBack  []ddfs.AccessStats
	CacheHit float64
}

// runMetadata encrypts every FSL backup under the scheme and replays the
// ciphertext streams through the DDFS-like prototype with the given
// fingerprint-cache capacity.
func runMetadata(d *trace.Dataset, scheme defense.Scheme, cacheBytes uint64) (MetadataResult, error) {
	var expected uint64
	for _, b := range d.Backups {
		expected += uint64(len(b.Chunks))
	}
	sys := ddfs.New(ddfs.Config{
		ContainerBytes:       4 << 20,
		CacheBytes:           cacheBytes,
		ExpectedFingerprints: expected,
		BloomFPP:             0.01,
	})
	res := MetadataResult{Scheme: scheme}
	for i, b := range d.Backups {
		enc, err := defense.Encrypt(b, scheme, int64(i+1))
		if err != nil {
			return MetadataResult{}, err
		}
		res.PerBack = append(res.PerBack, sys.StoreBackup(enc.Backup))
	}
	res.CacheHit = sys.CacheHitRate()
	return res, nil
}

// cacheSized returns the fingerprint-cache capacity covering the given
// fraction of the dataset's total (MLE-unique) fingerprint metadata. The
// paper's two regimes — a 512 MB cache that cannot hold the FSL dataset's
// ~2 GB of fingerprint metadata, and a 4 GB cache that holds all of it —
// map to fractions ~0.25 and >1 at our scale.
func cacheSized(d *trace.Dataset, frac float64) uint64 {
	unique := make(map[[8]byte]struct{})
	for _, b := range d.Backups {
		for _, c := range b.Chunks {
			unique[c.FP] = struct{}{}
		}
	}
	return uint64(float64(len(unique)) * ddfs.EntryBytes * frac)
}

// figsMetadata builds the Figure 13/14 triple (overall + per-scheme
// breakdown) for one cache regime.
func figsMetadata(ds Datasets, figID string, cacheFrac float64) ([]Figure, error) {
	d := ds.FSL
	cache := cacheSized(d, cacheFrac)
	mle, err := runMetadata(d, defense.SchemeMLE, cache)
	if err != nil {
		return nil, err
	}
	comb, err := runMetadata(d, defense.SchemeCombined, cache)
	if err != nil {
		return nil, err
	}

	labels := make([]string, len(d.Backups))
	for i, b := range d.Backups {
		labels[i] = b.Label
	}
	const mb = 1 << 20
	toMB := func(v uint64) float64 { return float64(v) / mb }

	overall := Figure{
		ID:     figID + "(a)",
		Title:  fmt.Sprintf("overall metadata access per backup, cache = %.0f%% of fingerprint metadata (MB)", cacheFrac*100),
		XLabel: "backup",
		X:      labels,
	}
	mleSer := Series{Name: "MLE"}
	combSer := Series{Name: "Combined"}
	for i := range d.Backups {
		mleSer.Y = append(mleSer.Y, toMB(mle.PerBack[i].Total()))
		combSer.Y = append(combSer.Y, toMB(comb.PerBack[i].Total()))
	}
	overall.Series = []Series{mleSer, combSer}
	overall.Notes = append(overall.Notes,
		fmt.Sprintf("cache hit rate: MLE %.1f%%, Combined %.1f%%", mle.CacheHit*100, comb.CacheHit*100))

	breakdown := func(id, name string, r MetadataResult) Figure {
		fig := Figure{
			ID:     id,
			Title:  "metadata access breakdown for " + name + " (MB)",
			XLabel: "backup",
			X:      labels,
		}
		var upd, idx, load Series
		upd.Name, idx.Name, load.Name = "Update", "Index", "Loading"
		for i := range d.Backups {
			upd.Y = append(upd.Y, toMB(r.PerBack[i].UpdateBytes))
			idx.Y = append(idx.Y, toMB(r.PerBack[i].IndexBytes))
			load.Y = append(load.Y, toMB(r.PerBack[i].LoadingBytes))
		}
		fig.Series = []Series{upd, idx, load}
		return fig
	}

	return []Figure{
		overall,
		breakdown(figID+"(b)", "MLE", mle),
		breakdown(figID+"(c)", "Combined", comb),
	}, nil
}

// Fig13Metadata512 reproduces Figure 13: metadata access overhead when the
// fingerprint cache is insufficient (the paper's 512 MB regime, scaled to
// 25% of the dataset's fingerprint metadata).
func Fig13Metadata512(ds Datasets) ([]Figure, error) {
	return figsMetadata(ds, "Fig 13", 0.25)
}

// Fig14Metadata4G reproduces Figure 14: metadata access overhead when the
// fingerprint cache holds all fingerprints (the paper's 4 GB regime).
func Fig14Metadata4G(ds Datasets) ([]Figure, error) {
	return figsMetadata(ds, "Fig 14", 1.5)
}
