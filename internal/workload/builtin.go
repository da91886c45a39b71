package workload

import "freqdedup/internal/trace"

// Builtin workloads: six scenarios that exercise distinct churn
// mechanics, and the paper's three evaluation datasets (Section 5.1) —
// FSL home directories, the synthetic snapshot chain and weekly VM
// images — all compositions over the same State.
//
// Factories receive the caller's raw Config: a zero field means "not
// set", letting scenario factories supply their own defaults (user
// counts, chunk models) before NewGenerator validates the result.

func init() {
	Register("fileserver", newFileserver)
	Register("vmfarm", newVMFarm)
	Register("database", newDatabase)
	Register("media", newMedia)
	Register("compressed", newCompressed)
	Register("teamshare", newTeamshare)
	Register("synthetic", newSynthetic)
	Register("fsl", newFSL)
	Register("vm", newVM)
}

// fileserver: a general-purpose file server — shared-library duplication,
// a volatile working set modified in clustered regions, slow growth.
func newFileserver(cfg Config) (Source, error) {
	return NewGenerator("fileserver", cfg,
		func(st *State) {
			st.InitLibrary(6, 256, 48<<10)
			per := st.Cfg.TotalBytes / st.Cfg.Users
			for u := 0; u < st.Cfg.Users; u++ {
				st.Fill(u, per, 0.08, 0.45, 0.55)
			}
		},
		FileChurn{
			ModifyFrac:  0.08,
			ContentFrac: 0.35,
			DeleteFrac:  0.01,
			GrowFrac:    0.03,
			HotFrac:     0.08,
			ReuseFrac:   0.30,
		},
	)
}

// vmfarm: a cluster of VM images cloned from one base — heavy cross-image
// duplication, clustered churn in a volatile zone, local block
// relocation, and episodic layer installs. Each user is one image.
func newVMFarm(cfg Config) (Source, error) {
	if cfg.Users == 0 {
		cfg.Users = 4
	}
	return NewGenerator("vmfarm", cfg,
		func(st *State) {
			st.InitLibrary(6, 96, 32<<10)
			// The shared base image every VM is cloned from.
			per := st.Cfg.TotalBytes / st.Cfg.Users
			base := &Extent{vol: 1}
			for base.bytes() < per {
				e := st.newObject(st.Cfg.MeanObjectBytes, 0.06, 0.45)
				base.chunks = append(base.chunks, e.chunks...)
			}
			for _, s := range st.Users() {
				img := base.clone()
				st.rewriteRegion(img, 0.10, 0.35) // initial per-VM drift
				s.extents = []*Extent{img}
			}
		},
		VMLayer{
			ChurnFrac:        0.08,
			MaxRegions:       3,
			VolatileZoneFrac: 0.35,
			RelocateFrac:     0.15,
			LayerFrac:        0.06,
			LayerEvery:       2,
			HotFrac:          0.06,
			ReuseFrac:        0.30,
		},
	)
}

// database: one database file per user — fixed-size pages, a template-page
// frequency head (zero pages, catalog pages repeated across the file),
// in-place hot-zone updates, slow tail growth.
func newDatabase(cfg Config) (Source, error) {
	if cfg.Chunk == (trace.ChunkSizeModel{}) {
		// Database pages are fixed-size.
		cfg.Chunk = trace.ChunkSizeModel{Min: 8192, Avg: 8192, Max: 8192}
	}
	return NewGenerator("database", cfg,
		func(st *State) {
			st.InitLibrary(8, 0, 0) // hot singles double as template pages
			per := st.Cfg.TotalBytes / st.Cfg.Users
			for _, s := range st.Users() {
				file := &Extent{vol: 1}
				for file.bytes() < per {
					if st.Rng.Float64() < 0.12 {
						file.chunks = append(file.chunks, st.pickHot().chunks[0])
					} else {
						file.chunks = append(file.chunks, st.MintChunk())
					}
				}
				s.extents = []*Extent{file}
			}
		},
		DBPageUpdate{
			UpdateFrac:  0.10,
			HotZoneFrac: 0.20,
			HotProb:     0.80,
			GrowFrac:    0.01,
		},
	)
}

// media: an append-only media library — large immutable blobs, a fraction
// of arrivals duplicating stored assets, nothing modified or deleted.
func newMedia(cfg Config) (Source, error) {
	return NewGenerator("media", cfg,
		func(st *State) {
			st.InitLibrary(4, 64, 4*st.Cfg.MeanObjectBytes)
			per := st.Cfg.TotalBytes / st.Cfg.Users
			for u := 0; u < st.Cfg.Users; u++ {
				st.Fill(u, per, 0.05, 0.25, 1.0) // stableFrac 1: immutable
			}
		},
		MediaAppend{
			AppendFrac: 0.10,
			DupFrac:    0.15,
		},
	)
}

// compressed: compress-then-backup archives — light upstream churn whose
// effect is amplified by boundary re-cutting downstream of each edit, so
// only the leading portion of the stream deduplicates across generations.
func newCompressed(cfg Config) (Source, error) {
	return NewGenerator("compressed", cfg,
		func(st *State) {
			st.InitLibrary(6, 128, 48<<10)
			per := st.Cfg.TotalBytes / st.Cfg.Users
			for u := 0; u < st.Cfg.Users; u++ {
				st.Fill(u, per, 0.08, 0.40, 0.55)
			}
		},
		FileChurn{
			ModifyFrac:  0.02,
			ContentFrac: 0.10,
			GrowFrac:    0.02,
			HotFrac:     0.08,
			ReuseFrac:   0.30,
		},
		CompressRecut{TailFrac: 0.30},
	)
}

// teamshare: multi-user shared-team storage — per-user churn plus
// cross-user propagation of shared artifacts each generation.
func newTeamshare(cfg Config) (Source, error) {
	if cfg.Users == 0 {
		cfg.Users = 3
	}
	return NewGenerator("teamshare", cfg,
		func(st *State) {
			st.InitLibrary(6, 192, 48<<10)
			per := st.Cfg.TotalBytes / st.Cfg.Users
			for u := 0; u < st.Cfg.Users; u++ {
				st.Fill(u, per, 0.08, 0.45, 0.55)
			}
		},
		FileChurn{
			ModifyFrac:  0.06,
			ContentFrac: 0.30,
			DeleteFrac:  0.01,
			GrowFrac:    0.02,
			HotFrac:     0.08,
			ReuseFrac:   0.30,
		},
		UserOverlap{ShareFrac: 0.03, RecipientVol: 0.5},
	)
}

// The paper's FSL and VM traces are not redistributable at full fidelity,
// so fsl and vm synthesize workloads with the statistics the attacks and
// defenses depend on — skewed chunk frequency (Figure 1), chunk locality
// across backup versions, clustered updates — at laptop scale; synthetic
// follows the paper's own published method.

// fsl: FSL-like home directories (Fslhomes: 6 users, 5 monthly backups,
// 8 KB average variable-size chunks, heavily duplicated shared content).
// Backup t concatenates every user's home at month t.
func newFSL(cfg Config) (Source, error) {
	if cfg.Users == 0 {
		cfg.Users = 6
	}
	if cfg.Backups == 0 {
		cfg.Backups = 5
	}
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = cfg.Users * (20 << 20)
	}
	if cfg.MeanObjectBytes == 0 {
		cfg.MeanObjectBytes = 128 << 10
	}
	per := cfg.TotalBytes / cfg.Users
	return NewGenerator("fsl", cfg,
		func(st *State) {
			st.InitLibrary(6, 320, 48<<10)
			for _, s := range st.Users() {
				st.fillDirs(s, per, 12, 0.08, 0.50, 0.55)
			}
		},
		DirChurn{
			DeleteFrac:  0.01,
			ModifyFrac:  0.10,
			ContentFrac: 0.45,
			GrowBytes:   int(float64(per) * 0.04),
			HotFrac:     0.08,
			ReuseFrac:   0.50,
			ShuffleFrac: 0.02,
		},
	)
}

// synthetic: the paper's snapshot chain after Lillibridge et al.: an
// initial snapshot, then versions that each modify 2 % of the files,
// rewriting 2.5 % of each one's content, and add new data — 10 MB per
// 1.1 GB image in the paper, kept here as 448 KiB per 48 MiB.
func newSynthetic(cfg Config) (Source, error) {
	if cfg.Backups == 0 {
		cfg.Backups = 11
	}
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 48 << 20
	}
	if cfg.MeanObjectBytes == 0 {
		cfg.MeanObjectBytes = 160 << 10
	}
	if cfg.Users == 0 {
		cfg.Users = 1
	}
	per := cfg.TotalBytes / cfg.Users
	return NewGenerator("synthetic", cfg,
		func(st *State) {
			st.InitLibrary(6, 512, 40<<10)
			for _, s := range st.Users() {
				st.fillDirs(s, per, 12, 0.08, 0.28, 0.55)
			}
		},
		DirChurn{
			ModifyFrac:  0.02,
			ContentFrac: 0.025,
			GrowBytes:   int(int64(per) * (448 << 10) / (48 << 20)),
			HotFrac:     0.08,
			ReuseFrac:   0.28,
			ShuffleFrac: 0.05,
		},
	)
}

// vm: students' VM images installed from one OS base and snapshotted
// weekly (4 KB fixed-size chunks, very high dedup ratio). Users make big
// changes in a mid-semester window, transitions 5–8 of 13, after which
// storage saving drops; the window scales with Backups. Each user is one
// image.
func newVM(cfg Config) (Source, error) {
	if cfg.Users == 0 {
		cfg.Users = 20
	}
	if cfg.Backups == 0 {
		cfg.Backups = 13
	}
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = cfg.Users * (10 << 20)
	}
	if cfg.MeanObjectBytes == 0 {
		cfg.MeanObjectBytes = 64 << 10 // base-image objects, twice the library mean
	}
	if cfg.Chunk == (trace.ChunkSizeModel{}) {
		cfg.Chunk = trace.ChunkSizeModel{Min: 4096, Avg: 4096, Max: 4096}
	}
	return NewGenerator("vm", cfg,
		func(st *State) {
			st.InitLibrary(6, 128, 32<<10)
			// The shared base image: library copies give it internal
			// duplication, and the dataset its frequency skew.
			dirs := &Stream{}
			st.fillDirs(dirs, st.Cfg.TotalBytes/st.Cfg.Users, 16, 0.06, 0.45, 1)
			base := &Extent{vol: 1}
			for _, e := range dirs.extents {
				base.chunks = append(base.chunks, e.chunks...)
			}
			for _, s := range st.Users() {
				img := base.clone()
				st.churn(img, 0.10, 0.35, 4) // initial per-image drift
				s.extents = []*Extent{img}
			}
		},
		VMLayer{
			ChurnFrac:        0.07,
			MaxRegions:       4,
			HeavyChurnFrac:   0.50,
			HeavyFrom:        5 * cfg.Backups / 13,
			HeavyTo:          8 * cfg.Backups / 13,
			VolatileZoneFrac: 0.35,
			RelocateFrac:     0.18,
		},
	)
}
