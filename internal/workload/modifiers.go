package workload

import "freqdedup/internal/trace"

// The builtin modifiers. Each models one mechanism by which real primary
// data evolves between backups; scenarios compose them in order. All
// randomness comes from the State's Rng; no modifier retains state across
// Apply calls.

// FileChurn models day-to-day file-population evolution: a volatile
// working set is modified in clustered regions, a few files are deleted,
// and new data (fresh files plus library copies) grows the stream.
type FileChurn struct {
	// ModifyFrac is the fraction of extents modified per generation.
	ModifyFrac float64
	// ContentFrac is the fraction of a modified extent's chunks rewritten.
	ContentFrac float64
	// DeleteFrac is the fraction of extents deleted per generation.
	DeleteFrac float64
	// GrowFrac is new data per generation as a fraction of the stream's
	// current bytes.
	GrowFrac float64
	// HotFrac/ReuseFrac set the library-draw mix for new extents.
	HotFrac, ReuseFrac float64
}

func (FileChurn) Name() string { return "file-churn" }

func (c FileChurn) Apply(st *State, gen int) {
	for _, s := range st.Users() {
		// Delete from the volatile working set.
		if nDel := int(float64(len(s.extents))*c.DeleteFrac + 0.5); nDel > 0 {
			for i := 0; i < nDel; i++ {
				vol := make([]int, 0, len(s.extents))
				for j, e := range s.extents {
					if e.vol > 0 {
						vol = append(vol, j)
					}
				}
				if len(vol) == 0 {
					break
				}
				j := vol[st.Rng.Intn(len(vol))]
				s.extents = append(s.extents[:j], s.extents[j+1:]...)
			}
		}
		// Modify, concentrated in the most volatile extents.
		nMod := int(float64(len(s.extents))*c.ModifyFrac + 0.5)
		if nMod < 1 {
			nMod = 1
		}
		for _, idx := range st.weightedSample(s, nMod) {
			st.rewriteRegion(s.extents[idx], c.ContentFrac, 0)
		}
		// Grow.
		target := int(float64(s.bytes()) * c.GrowFrac)
		var added int
		for added < target {
			e := st.newObject(st.Cfg.MeanObjectBytes, c.HotFrac, c.ReuseFrac)
			e.vol = st.Rng.ExpFloat64() + 0.05
			s.extents = append(s.extents, e)
			added += e.bytes()
		}
	}
}

// DirChurn models the month-to-month churn of a directory tree built by
// fillDirs (the FSL home directories and the synthetic snapshot chain):
// deletions from the most volatile directory, modifications drawn by
// volatility and rewritten in one clustered region each, new data grown
// into one or two volatile directories, and objects moved within their
// volatile directories.
type DirChurn struct {
	// DeleteFrac and ModifyFrac are the fractions of a stream's objects
	// deleted and modified per generation (at least one is modified).
	DeleteFrac, ModifyFrac float64
	// ContentFrac is the fraction of a modified object's chunks rewritten.
	ContentFrac float64
	// GrowBytes is the new data per stream per generation.
	GrowBytes int
	// HotFrac/ReuseFrac set the library-draw mix for new objects.
	HotFrac, ReuseFrac float64
	// ShuffleFrac is the fraction of each volatile directory's objects
	// moved per generation.
	ShuffleFrac float64
}

func (DirChurn) Name() string { return "dir-churn" }

func (c DirChurn) Apply(st *State, gen int) {
	for _, s := range st.Users() {
		st.deleteFromDir(s, int(float64(len(s.extents))*c.DeleteFrac+0.5))
		nMod := int(float64(len(s.extents))*c.ModifyFrac + 0.5)
		if nMod < 1 {
			nMod = 1
		}
		for _, idx := range st.weightedSample(s, nMod) {
			st.rewriteRegion(s.extents[idx], c.ContentFrac, 0)
		}
		st.growDirs(s, c.GrowBytes, c.HotFrac, c.ReuseFrac)
		st.shuffleDirs(s, c.ShuffleFrac)
	}
}

// VMLayer models VM-image evolution: clustered content churn concentrated
// in a volatile leading zone (logs, caches, home directories), local
// relocation of block runs (defragmentation, package reinstalls), and
// episodic layering — a new image layer of fresh plus library content
// appended every LayerEvery generations (package installs, OS updates).
// It treats each user's whole stream as one image.
type VMLayer struct {
	// ChurnFrac is the total content churn per generation, rewritten in 1
	// to MaxRegions clustered regions.
	ChurnFrac  float64
	MaxRegions int
	// HeavyChurnFrac replaces ChurnFrac in generations HeavyFrom through
	// HeavyTo: a window of big changes, after which backups share little
	// content with the ones before it.
	HeavyChurnFrac     float64
	HeavyFrom, HeavyTo int
	// VolatileZoneFrac concentrates churn in the leading fraction of the
	// image.
	VolatileZoneFrac float64
	// RelocateFrac is the fraction of the image relocated (content
	// preserved, position perturbed locally) per generation.
	RelocateFrac float64
	// LayerFrac sizes an appended layer as a fraction of the image.
	LayerFrac float64
	// LayerEvery appends a layer every k generations (0 = never).
	LayerEvery int
	// HotFrac/ReuseFrac set the library-draw mix inside a new layer.
	HotFrac, ReuseFrac float64
}

func (VMLayer) Name() string { return "vm-layer" }

func (m VMLayer) Apply(st *State, gen int) {
	for _, s := range st.Users() {
		if len(s.extents) == 0 {
			continue
		}
		img := s.extents[0] // the image is one extent per user
		frac := m.ChurnFrac
		if gen >= m.HeavyFrom && gen <= m.HeavyTo {
			frac = m.HeavyChurnFrac
		}
		st.churn(img, frac, m.VolatileZoneFrac, m.MaxRegions)
		relocateChunks(st, img, m.RelocateFrac)
		if m.LayerEvery > 0 && gen%m.LayerEvery == 0 && m.LayerFrac > 0 {
			target := int(float64(img.bytes()) * m.LayerFrac)
			var added int
			for added < target {
				e := st.newObject(st.Cfg.MeanObjectBytes, m.HotFrac, m.ReuseFrac)
				img.chunks = append(img.chunks, e.chunks...)
				added += e.bytes()
			}
		}
	}
}

// relocateChunks moves a contiguous run covering approximately frac of the
// extent to a nearby position, preserving content (and therefore
// deduplication) while perturbing the chunk order the locality-based
// attack walks. Moves are local: defragmentation and file moves shuffle
// nearby block runs, they do not teleport data across the disk.
func relocateChunks(st *State, e *Extent, frac float64) {
	n := len(e.chunks)
	run := int(float64(n)*frac + 0.5)
	if run < 1 || run >= n {
		return
	}
	start := st.Rng.Intn(n - run)
	moved := make([]trace.ChunkRef, run)
	copy(moved, e.chunks[start:start+run])
	rest := append(append([]trace.ChunkRef{}, e.chunks[:start]...), e.chunks[start+run:]...)
	window := n / 8
	if window < 1 {
		window = 1
	}
	pos := start - window + st.Rng.Intn(2*window+1)
	if pos < 0 {
		pos = 0
	}
	if pos > len(rest) {
		pos = len(rest)
	}
	out := make([]trace.ChunkRef, 0, n)
	out = append(out, rest[:pos]...)
	out = append(out, moved...)
	out = append(out, rest[pos:]...)
	e.chunks = out
}

// DBPageUpdate models database file evolution: individual fixed-size pages
// are rewritten in place (same position, same size — page writes never
// shift the file layout), updates concentrate on a hot leading zone of the
// file, and the tail grows slowly as tables extend. The in-place updates
// give database backups their distinctive positional stability.
type DBPageUpdate struct {
	// UpdateFrac is the fraction of pages rewritten per generation.
	UpdateFrac float64
	// HotZoneFrac is the leading fraction of the file absorbing most
	// updates; HotProb is the probability an update lands there.
	HotZoneFrac float64
	HotProb     float64
	// GrowFrac extends the page count per generation.
	GrowFrac float64
}

func (DBPageUpdate) Name() string { return "db-page-update" }

func (m DBPageUpdate) Apply(st *State, gen int) {
	for _, s := range st.Users() {
		if len(s.extents) == 0 {
			continue
		}
		file := s.extents[0] // the database file is one extent per user
		n := len(file.chunks)
		if n == 0 {
			continue
		}
		k := int(float64(n)*m.UpdateFrac + 0.5)
		if k < 1 {
			k = 1
		}
		hotZone := int(float64(n) * m.HotZoneFrac)
		if hotZone < 1 {
			hotZone = 1
		}
		for i := 0; i < k; i++ {
			pos := st.Rng.Intn(n)
			if st.Rng.Float64() < m.HotProb {
				pos = st.Rng.Intn(hotZone)
			}
			// In place: fresh content, same page slot and size.
			file.chunks[pos].FP = st.mint.mint()
		}
		grow := int(float64(n)*m.GrowFrac + 0.5)
		for i := 0; i < grow; i++ {
			file.chunks = append(file.chunks, st.MintChunk())
		}
	}
}

// MediaAppend models an append-only media library: new blobs arrive every
// generation, a fraction of them duplicate existing blobs (re-shared
// assets), and nothing already stored is ever modified or deleted.
type MediaAppend struct {
	// AppendFrac is new data per generation as a fraction of the stream's
	// current bytes.
	AppendFrac float64
	// MeanBlobBytes is the mean new-blob size (0 = 4x the config's mean
	// object size — media blobs run large).
	MeanBlobBytes int
	// DupFrac is the probability a new blob is a copy of an existing one.
	DupFrac float64
}

func (MediaAppend) Name() string { return "media-append" }

func (m MediaAppend) Apply(st *State, gen int) {
	mean := m.MeanBlobBytes
	if mean == 0 {
		mean = 4 * st.Cfg.MeanObjectBytes
	}
	for _, s := range st.Users() {
		target := int(float64(s.bytes()) * m.AppendFrac)
		var added int
		for added < target {
			var e *Extent
			if len(s.extents) > 0 && st.Rng.Float64() < m.DupFrac {
				e = s.extents[st.Rng.Intn(len(s.extents))].clone()
			} else {
				e = st.FreshExtent(st.objectBytes(mean))
			}
			e.vol = 0 // media is immutable once stored
			s.extents = append(s.extents, e)
			added += e.bytes()
		}
	}
}

// CompressRecut models compress-then-backup pipelines (tar.gz archives,
// compressed database dumps): compression upstream of chunking destroys
// content-defined boundary stability, so an edit re-cuts everything
// downstream of it — all chunks from the edit point to the end of the
// stream get fresh fingerprints and re-drawn sizes. Edits land in the
// trailing TailFrac of the stream (append-mostly archives), so the shared
// prefix decays slowly instead of collapsing at once.
type CompressRecut struct {
	// TailFrac is the trailing fraction of the stream within which the
	// edit point is drawn each generation.
	TailFrac float64
}

func (CompressRecut) Name() string { return "compress-recut" }

func (m CompressRecut) Apply(st *State, gen int) {
	for _, s := range st.Users() {
		n := s.chunkCount()
		if n == 0 {
			continue
		}
		window := int(float64(n) * m.TailFrac)
		if window < 1 {
			window = 1
		}
		cut := n - window + st.Rng.Intn(window)
		// Re-mint every chunk at stream position >= cut.
		pos := 0
		for _, e := range s.extents {
			for i := range e.chunks {
				if pos >= cut {
					e.chunks[i] = st.MintChunk()
				}
				pos++
			}
		}
	}
}

// UserOverlap models cross-user duplication in shared-team storage: each
// generation one user's artifacts propagate to every other user (shared
// builds, distributed documents, synced project files), creating the
// sequence-preserving cross-user overlap that drives dedup ratios — and
// chunk-locality leakage — in multi-tenant backups.
type UserOverlap struct {
	// ShareFrac is the fraction of the source user's extents propagated
	// per generation.
	ShareFrac float64
	// RecipientVol is the volatility copies get at their recipients
	// (recipients may later modify their copy, diverging from the
	// original).
	RecipientVol float64
}

func (UserOverlap) Name() string { return "user-overlap" }

func (m UserOverlap) Apply(st *State, gen int) {
	users := st.Users()
	if len(users) < 2 {
		return
	}
	src := users[gen%len(users)]
	if len(src.extents) == 0 {
		return
	}
	k := int(float64(len(src.extents))*m.ShareFrac + 0.5)
	if k < 1 {
		k = 1
	}
	picks := make([]*Extent, 0, k)
	for i := 0; i < k; i++ {
		picks = append(picks, src.extents[st.Rng.Intn(len(src.extents))])
	}
	for _, dst := range users {
		if dst == src {
			continue
		}
		for _, p := range picks {
			c := p.clone()
			c.vol = m.RecipientVol
			// Insert at a random position: shared artifacts land wherever
			// the recipient's tree puts them.
			pos := st.Rng.Intn(len(dst.extents) + 1)
			dst.extents = append(dst.extents, nil)
			copy(dst.extents[pos+1:], dst.extents[pos:])
			dst.extents[pos] = c
		}
	}
}
