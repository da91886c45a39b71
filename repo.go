package freqdedup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"freqdedup/internal/container"
	"freqdedup/internal/dedup"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/vfs"
)

// Repository is the system front door: a long-lived encrypted
// deduplication store with a durable, snapshot-granular catalog. Where the
// internal dedup Store/Client pair asks callers to wire chunking, encryption,
// upload, recipe handling, and retention registration by hand — and keeps
// retention state only in memory — a Repository owns the whole lifecycle:
//
//   - Backup chunks, encrypts, and deduplicates a stream, seals the recipe
//     under the repository key, and persists it in a crash-safe snapshot
//     catalog beside the container shards. A snapshot returned by Backup
//     survives a process crash.
//   - OpenRepository replays the catalog, restoring the snapshot list and
//     the per-chunk reference counts, so GC after a reopen reclaims
//     exactly the chunks no snapshot references — not everything, which is
//     what the raw dedup Store's "unregistered = unreferenced" rule does to a
//     reopened process that forgets to re-register.
//   - Every data-path method takes a context.Context; cancellation stops
//     the backup, restore, GC, and verify pipelines promptly and hands
//     every pooled buffer back.
//
// A Repository is safe for concurrent use: concurrent Backups of
// different names, Restores, and Snapshots listings may overlap. GC
// stops the world, and additionally excludes in-flight Backups: a
// backup's chunks are unreferenced until its snapshot is registered, so
// a GC overlapping the upload would reclaim them out from under the
// snapshot it is about to acknowledge.
type Repository struct {
	store   *dedup.Store
	catalog *dedup.Catalog
	cfg     ClientConfig
	key     Key

	// tapLog records the adversary's view of every Backup's upload
	// stream when the tap is enabled (WithUploadObserver, or an existing
	// traces.fdt found on open); tapObs is the caller's extra observer.
	tapLog *tracelog.Log
	tapObs UploadObserver

	// gcMu serializes GC against in-flight Backups: Backup holds the read
	// side for its whole upload-to-registration window, GC the write side.
	// Restores don't need it — they only read chunks referenced by live
	// snapshots, which GC never reclaims (and the store already handles
	// mid-restore chunk relocation).
	gcMu sync.RWMutex

	// Lazy retention rebuild: OpenRepository validates the repository key
	// against one sealed recipe and defers unsealing the rest until
	// retention state is actually consulted (Backup registration, Delete,
	// GC, Repair) — so a cold open does one metadata pass, not a full
	// recipe decryption sweep. retOnce/retErr make the rebuild run once;
	// the error is sticky because half-rebuilt reference counts must
	// never feed a GC.
	retOnce sync.Once
	retErr  error

	// own names the snapshots this instance's Backup made, under cfg's
	// chunking: the parents a Backup may predict its cuts from. Under an
	// encryption other than convergent, sums holds by tenant the newest
	// one's plaintext SHA-256s (dedup.Client.Sums), which its table needs;
	// they live in memory only.
	ownMu sync.Mutex
	own   map[string]struct{}
	sums  map[string]ownSums

	// closeMu/closed make Close idempotent and safe after partial failures.
	closeMu sync.Mutex
	closed  bool

	// Salvage context for Repair: what the (salvage) open had to drop.
	fsys        vfs.FS
	path        string
	salvaged    container.SalvageStats
	catSalvaged dedup.CatalogSalvageStats
}

// Encryption selects a Repository's (or ClientConfig's) chunk-encryption
// scheme: EncConvergent, EncServerAided, or EncMinHash.
type Encryption = dedup.Encryption

// DedupStats reports a store's deduplication effectiveness.
type DedupStats = trace.DedupStats

// Snapshot is one completed backup in a repository's catalog.
type Snapshot struct {
	// Name is the caller-chosen snapshot name, unique within the
	// repository.
	Name string
	// CreatedAt is when the snapshot's Backup completed.
	CreatedAt time.Time
	// LogicalBytes is the snapshot's pre-deduplication size.
	LogicalBytes uint64
	// Chunks is the snapshot's logical chunk count.
	Chunks int
}

// ErrSnapshotExists is returned by Backup for a name the repository
// already holds.
var ErrSnapshotExists = dedup.ErrSnapshotExists

// ErrSnapshotNotFound is returned by Restore and Delete for a name the
// repository does not hold.
var ErrSnapshotNotFound = dedup.ErrSnapshotNotFound

// ErrCatalogCorrupt is wrapped by OpenRepository when the snapshot
// catalog fails structural validation (a torn tail from a crash is
// recovered silently; this is real damage).
var ErrCatalogCorrupt = dedup.ErrCatalogCorrupt

// repoOptions collects the functional options of CreateRepository and
// OpenRepository.
type repoOptions struct {
	shards         int
	containerBytes int
	cfg            ClientConfig
	key            Key
	tap            bool
	observer       UploadObserver
	fsys           vfs.FS
	salvage        bool
	indexTuning    IndexTuning
}

// IndexTuning adjusts the fingerprint index's memory knobs; see
// WithIndexTuning. Zero fields select fpindex defaults. Compaction has no
// knob: a flush that fills a level merges it inline.
type IndexTuning struct {
	// MemtableEntries is the per-shard memtable capacity before a flush
	// to an on-disk sorted run.
	MemtableEntries int
	// CacheBytes bounds the shared hot-block cache.
	CacheBytes int64
}

// IndexDirName is the subdirectory of a repository path holding the
// fingerprint index: per-shard memtables flushed to Bloom-fronted sorted
// runs, so an open reads run footers and filters plus only the container
// tail written since the last index flush, and steady-state memory is
// bounded regardless of how many chunks the repository holds. A
// repository without it (or with a damaged one) rebuilds it from its
// containers on open.
const IndexDirName = "fpindex"

// memRepoPath is where CreateRepository("") lays out its files on its
// private in-memory filesystem.
const memRepoPath = "mem"

// RepositoryOption configures CreateRepository and OpenRepository.
type RepositoryOption func(*repoOptions)

// WithShards sets the store's shard count in [1, 256]
// (DefaultStoreShards if unset). Ignored by OpenRepository: a reopened
// store's shard count comes from its files.
func WithShards(n int) RepositoryOption {
	return func(o *repoOptions) { o.shards = n }
}

// WithContainerBytes sets the container capacity in bytes (the paper's
// 4 MB if unset). Ignored by OpenRepository: a reopened store's capacity
// comes from its file headers.
func WithContainerBytes(n int) RepositoryOption {
	return func(o *repoOptions) { o.containerBytes = n }
}

// WithIndexTuning adjusts the fingerprint index's memory knobs (see
// IndexDirName). Benchmarks and fault harnesses shrink the
// memtable to force run flushes and compactions; production repositories
// normally keep the defaults.
func WithIndexTuning(t IndexTuning) RepositoryOption {
	return func(o *repoOptions) { o.indexTuning = t }
}

// WithChunking sets the content-defined chunking parameters
// (DefaultChunkingParams if unset). The Algorithm field selects the
// boundary function: AlgoRabin (the default) or the faster AlgoGear. The
// two are distinct formats — their cut points differ, so a repository's
// dedup ratio is only preserved against backups chunked with the same
// algorithm.
func WithChunking(p ChunkingParams) RepositoryOption {
	return func(o *repoOptions) { o.cfg.Chunking = p }
}

// WithEncryption selects the chunk-encryption scheme (EncConvergent if
// unset). EncServerAided and EncMinHash also need WithKeyDeriver.
func WithEncryption(e Encryption) RepositoryOption {
	return func(o *repoOptions) { o.cfg.Encryption = e }
}

// WithKeyDeriver supplies the key deriver for EncServerAided and
// EncMinHash (the key-manager client or NewLocalDeriver).
func WithKeyDeriver(d KeyDeriver) RepositoryOption {
	return func(o *repoOptions) { o.cfg.Deriver = d }
}

// WithScramble enables per-segment upload-order scrambling (Algorithm 5,
// the paper's second defense). Seed 0 draws a fresh cryptographically
// random order per backup; a nonzero seed makes the order reproducible.
func WithScramble(seed int64) RepositoryOption {
	return func(o *repoOptions) {
		o.cfg.Scramble = true
		o.cfg.ScrambleSeed = seed
	}
}

// WithWorkers sets the size of each backup's encrypt worker pool and how
// many goroutines the restore's container reads and decrypts fan out to
// (GOMAXPROCS if unset). Results are identical at every worker count.
func WithWorkers(n int) RepositoryOption {
	return func(o *repoOptions) { o.cfg.Workers = n }
}

// UploadObserver observes the post-encryption upload stream of every
// Backup — the Section 3.3 adversary view: ciphertext fingerprint and
// ciphertext size per chunk, in upload (wire) order.
type UploadObserver = dedup.UploadObserver

// TraceLog is a repository's durable adversary trace log (traces.fdt):
// one committed, CRC-framed, replayable trace per acknowledged Backup.
type TraceLog = tracelog.Log

// TapBackup is one committed backup trace in a TraceLog. It implements
// the streaming attack engine's ChunkSource, so a trace larger than RAM
// can be attacked without materializing it.
type TapBackup = tracelog.BackupTrace

// WithUploadObserver enables the adversary observation tap (Section 3.3):
// every Backup's post-encryption upload stream — ciphertext fingerprint,
// ciphertext size, upload order; nothing else — is recorded in an
// append-only trace log (traces.fdt beside the snapshot catalog) and,
// when obs is non-nil, forwarded to obs as it streams. The trace of an
// acknowledged snapshot is committed and fsynced before Backup returns; a
// crashed or failed backup leaves no committed trace. OpenRepository
// replays the log, so real backup histories can be fed to the attack
// engine via TraceLog.
//
// A repository that ever had the tap enabled keeps tapping after a plain
// OpenRepository: an existing traces.fdt re-enables the tap, keeping the
// observation history gap-free. Pass a nil obs to record the log alone.
func WithUploadObserver(obs UploadObserver) RepositoryOption {
	return func(o *repoOptions) {
		o.tap = true
		o.observer = obs
	}
}

// FileSystem is the file-operations interface a repository runs against
// — see the vfs package. The default is the real filesystem;
// fault-injection harnesses substitute faultio implementations.
type FileSystem = vfs.FS

// OSFileSystem is the production FileSystem: package os, unwrapped.
var OSFileSystem = vfs.OS

// WithFileSystem routes every file operation of a repository — container
// shards, snapshot catalog, trace log, fingerprint index — through fs
// instead of the real filesystem. This is the fault-injection seam: a
// faultio.MemFS injects errors, torn writes, and crash points under the
// exact production code paths. Ignored by CreateRepository("") (which
// uses a private in-memory filesystem).
func WithFileSystem(fs FileSystem) RepositoryOption {
	return func(o *repoOptions) { o.fsys = fs }
}

// WithSalvage makes OpenRepository tolerate on-disk damage instead of
// failing: container shards and the snapshot catalog are opened in
// salvage mode, which skips unreadable records (resynchronizing on the
// next intact one) and keeps everything that still parses. A salvaged
// repository can read, restore, and list, but refuses to seal new
// containers until Repair has rebuilt a clean layout — open with salvage,
// run Repair, then operate normally. Ignored by CreateRepository.
func WithSalvage() RepositoryOption {
	return func(o *repoOptions) { o.salvage = true }
}

// WithDegradedRestore makes Restore survive lost chunks: unrecoverable
// regions of the output are zero-filled and reported through a
// *DegradedError (retrieve it with errors.As) instead of failing the
// restore — every byte outside the reported ranges is still exact. Off by
// default: a restore either returns the original bytes or an error.
func WithDegradedRestore() RepositoryOption {
	return func(o *repoOptions) { o.cfg.DegradedRestore = true }
}

// WithRepositoryKey sets the user key that seals snapshot recipes in the
// catalog (Section 3.3: recipes are conventionally encrypted under the
// user's own secret). OpenRepository must be given the same key — it is
// authenticated, so a wrong key fails loudly instead of yielding garbage.
// The zero-key default is fine for experiments but is no secret at all;
// production deployments must set a real key.
func WithRepositoryKey(k Key) RepositoryOption {
	return func(o *repoOptions) { o.key = k }
}

// newRepoStore builds a repository's dedup store over its container
// backend, with the fingerprint index under <path>/fpindex. rebuild forces
// the index to discard its state and rescan the containers — the
// salvage-open path, where containers were renumbered and old run
// locations would be lies.
func newRepoStore(path string, backend container.Backend, o *repoOptions, rebuild bool) (*dedup.Store, error) {
	return dedup.NewStoreWithOptions(backend, dedup.StoreOptions{
		IndexDir:        filepath.Join(path, IndexDirName),
		FS:              o.fsys,
		RebuildIndex:    rebuild,
		MemtableEntries: o.indexTuning.MemtableEntries,
		CacheBytes:      o.indexTuning.CacheBytes,
	})
}

// buildRepo assembles a Repository once the backend and catalog exist and
// validates the client configuration by constructing a probe client.
func buildRepo(store *dedup.Store, catalog *dedup.Catalog, tapLog *tracelog.Log, o *repoOptions) (*Repository, error) {
	if _, err := dedup.NewClient(store, o.cfg); err != nil {
		return nil, err
	}
	return &Repository{
		store:   store,
		catalog: catalog,
		cfg:     o.cfg,
		key:     o.key,
		tapLog:  tapLog,
		tapObs:  o.observer,
		fsys:    o.fsys,
		own:     map[string]struct{}{},
		sums:    map[string]ownSums{},
	}, nil
}

// CreateRepository initializes a new repository: container shards, the
// snapshot catalog and (with the tap) the trace log are created under the
// directory, and everything a returned Backup acknowledged survives a
// crash. With an empty path the repository lives entirely in memory: the
// same files, written to a private in-memory filesystem instead of
// WithFileSystem's — the same code and formats for tests and
// experiments, durable as nothing.
//
// It fails if the directory already holds a repository; use
// OpenRepository for that.
func CreateRepository(path string, opts ...RepositoryOption) (*Repository, error) {
	o := applyOptions(opts)
	if path == "" {
		o.fsys = vfs.NewMem()
		path = memRepoPath
	}
	if o.shards < 0 || o.shards > 256 {
		// Checked before any file is created: a late validation failure
		// must not leave a half-initialized directory behind.
		return nil, fmt.Errorf("freqdedup: shard count %d out of range [1, 256]", o.shards)
	}
	shards := o.shards
	if shards == 0 {
		shards = dedup.DefaultShards
	}
	containerBytes := o.containerBytes
	if containerBytes == 0 {
		containerBytes = container.DefaultBytes
	}

	// On any failure past this point, close and REMOVE everything this
	// call created (shard files, catalog), so a failed create leaves the
	// directory as it found it instead of bricking both a retried Create
	// (files exist) and Open (catalog missing).
	backend, err := container.CreateFileBackendFS(o.fsys, path, shards, containerBytes)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Repository, error) {
		if names, gerr := o.fsys.Glob(filepath.Join(path, "shard-*.fdc")); gerr == nil {
			for _, name := range names {
				o.fsys.Remove(name)
			}
		}
		return nil, err
	}

	catalogPath := filepath.Join(path, dedup.CatalogName)
	catalog, err := dedup.CreateCatalogFS(o.fsys, catalogPath)
	if err != nil {
		backend.Close()
		return fail(err)
	}
	var tapLog *tracelog.Log
	tapPath := filepath.Join(path, tracelog.LogName)
	failClosing := func(err error) (*Repository, error) {
		if tapLog != nil {
			tapLog.Close()
			o.fsys.Remove(tapPath)
		}
		catalog.Close()
		backend.Close()
		o.fsys.Remove(catalogPath)
		return fail(err)
	}
	if o.tap {
		if tapLog, err = tracelog.CreateFS(o.fsys, tapPath); err != nil {
			return failClosing(err)
		}
	}

	store, err := newRepoStore(path, backend, o, false)
	if err != nil {
		return failClosing(err)
	}
	repo, err := buildRepo(store, catalog, tapLog, o)
	if err != nil {
		return failClosing(err)
	}
	repo.path = path
	return repo, nil
}

// OpenRepository reopens a repository created by CreateRepository: the
// container shards are revalidated and reindexed, the snapshot catalog is
// replayed (recovering from a crash-torn tail), and every snapshot's
// chunk references are re-registered with the store — so Snapshots,
// Restore, and crucially GC behave exactly as they did before the
// process restart. The repository key must match the one the snapshots
// were sealed under.
func OpenRepository(path string, opts ...RepositoryOption) (*Repository, error) {
	if path == "" {
		return nil, errors.New("freqdedup: OpenRepository needs a repository path")
	}
	o := applyOptions(opts)

	// The store's capacity comes from its file headers — WithContainerBytes
	// is documented as ignored on open, so new containers keep packing with
	// the geometry the store was created with.
	var backend *container.FileBackend
	var salvaged container.SalvageStats
	var catSalvaged dedup.CatalogSalvageStats
	var err error
	if o.salvage {
		backend, salvaged, err = container.OpenFileBackendSalvage(o.fsys, path)
	} else {
		backend, err = container.OpenFileBackendFS(o.fsys, path)
	}
	if err != nil {
		return nil, err
	}
	cleanup := func() { backend.Close() }
	var catalog *dedup.Catalog
	if o.salvage {
		catalog, catSalvaged, err = dedup.OpenCatalogSalvage(o.fsys, filepath.Join(path, dedup.CatalogName))
	} else {
		catalog, err = dedup.OpenCatalogFS(o.fsys, filepath.Join(path, dedup.CatalogName))
	}
	if err != nil {
		cleanup()
		return nil, err
	}
	// Reopen (or, with WithUploadObserver on a previously untapped
	// repository, start) the adversary trace log. An existing traces.fdt
	// re-enables the tap even without the option, so an observation
	// history never silently gains gaps.
	var tapLog *tracelog.Log
	tapPath := filepath.Join(path, tracelog.LogName)
	if _, statErr := o.fsys.Stat(tapPath); statErr == nil {
		tapLog, err = tracelog.OpenFS(o.fsys, tapPath)
	} else if o.tap {
		tapLog, err = tracelog.CreateFS(o.fsys, tapPath)
	}
	if err != nil {
		catalog.Close()
		cleanup()
		return nil, err
	}
	store, err := newRepoStore(path, backend, o, o.salvage)
	if err != nil {
		if tapLog != nil {
			tapLog.Close()
		}
		catalog.Close()
		cleanup()
		return nil, err
	}
	fail := func(err error) (*Repository, error) {
		if tapLog != nil {
			tapLog.Close()
		}
		catalog.Close()
		store.Close()
		return nil, err
	}
	// Validate the repository key against one sealed recipe now (a wrong
	// key must fail the open, not a later GC); the full retention rebuild
	// — unsealing every snapshot's recipe to recover reference counts —
	// is deferred to ensureRetention, so a cold open stays one metadata
	// pass even with thousands of snapshots.
	if recs := catalog.List(); len(recs) > 0 {
		if _, oerr := mle.OpenRecipe(recs[0].SealedRecipe, o.key); oerr != nil {
			return fail(fmt.Errorf("freqdedup: open snapshot %q recipe (wrong repository key?): %w", recs[0].Name, oerr))
		}
	}
	repo, err := buildRepo(store, catalog, tapLog, o)
	if err != nil {
		return fail(err)
	}
	repo.path = path
	repo.salvaged = salvaged
	repo.catSalvaged = catSalvaged
	return repo, nil
}

// ensureRetention completes the retention rebuild a reopened repository
// deferred: every cataloged snapshot's recipe is unsealed and its chunk
// references re-registered with the store, exactly once per Repository.
// Every path that consults or mutates retention state (Backup's
// registration, Delete, GC, Repair) calls it first, so reference counts
// are always complete before they matter. The error is sticky: a
// half-rebuilt count must never feed a GC sweep.
func (r *Repository) ensureRetention() error {
	r.retOnce.Do(func() {
		for _, rec := range r.catalog.List() {
			recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
			if err != nil {
				r.retErr = fmt.Errorf("freqdedup: open snapshot %q recipe (wrong repository key?): %w", rec.Name, err)
				return
			}
			if err := r.store.RegisterBackup(rec.Name, recipe); err != nil {
				r.retErr = fmt.Errorf("freqdedup: re-register snapshot %q: %w", rec.Name, err)
				return
			}
		}
	})
	return r.retErr
}

func applyOptions(opts []RepositoryOption) *repoOptions {
	o := &repoOptions{fsys: vfs.OS}
	for _, opt := range opts {
		opt(o)
	}
	if o.fsys == nil {
		o.fsys = vfs.OS
	}
	return o
}

// Backup reads src to EOF, deduplicating its chunks into the repository,
// and records the result as a snapshot under the given name. The recipe
// is sealed under the repository key and persisted in the snapshot
// catalog before Backup returns, and the written containers are synced
// first — an acknowledged snapshot survives a crash.
//
// Cancelling ctx stops the pipeline promptly with ctx.Err(); no snapshot
// is recorded, and chunks uploaded before the cancellation either
// deduplicate a retried backup or fall to the next GC.
func (r *Repository) Backup(ctx context.Context, name string, src io.Reader) (Snapshot, error) {
	if name == "" {
		return Snapshot{}, errors.New("freqdedup: empty snapshot name")
	}
	if err := r.ensureRetention(); err != nil {
		return Snapshot{}, err
	}
	if _, ok := r.catalog.Get(name); ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrSnapshotExists, name)
	}
	// Exclude GC for the whole upload-to-registration window: until
	// RegisterBackup runs, this backup's chunks look unreferenced and a
	// concurrent sweep would reclaim them.
	r.gcMu.RLock()
	defer r.gcMu.RUnlock()
	// When the tap is enabled, record this backup's upload stream in a
	// trace-log session: committed (and fsynced) only once the uploaded
	// data itself is durable, so an acknowledged snapshot always has a
	// committed trace and a failed backup leaves none. A failure after
	// the commit leaves a committed trace without a snapshot — correct
	// for an adversary view: those uploads did cross the wire.
	cfg := r.cfg
	var sess *tracelog.Session
	if r.tapLog != nil {
		var err error
		sess, err = r.tapLog.Begin(name)
		if err != nil {
			return Snapshot{}, err
		}
		if r.tapObs != nil {
			cfg.Observer = teeObserver{sess, r.tapObs}
		} else {
			cfg.Observer = sess
		}
	}
	abortTap := func(err error) (Snapshot, error) {
		if sess != nil {
			sess.Abort()
		}
		return Snapshot{}, err
	}
	client, err := dedup.NewClient(r.store, cfg)
	if err != nil {
		return abortTap(err)
	}
	client.SetParent(r.parent(name))
	recipe, err := client.BackupContext(ctx, src)
	if err != nil {
		return abortTap(err)
	}
	// Seal the data before cataloging the snapshot: a snapshot record must
	// never outlive (or predate) its chunks across a crash.
	if err := r.store.Sync(); err != nil {
		return abortTap(err)
	}
	if sess != nil {
		if err := sess.Commit(); err != nil {
			return Snapshot{}, err
		}
	}
	sealed, err := recipe.Seal(r.key)
	if err != nil {
		return Snapshot{}, err
	}
	// Truncated to the catalog's persisted precision (Unix seconds), so
	// the CreatedAt returned here equals the one Snapshots reports after
	// a reopen.
	created := time.Unix(time.Now().Unix(), 0)
	rec := dedup.SnapshotRecord{
		Name:         name,
		CreatedUnix:  created.Unix(),
		LogicalBytes: recipe.TotalSize(),
		Chunks:       uint32(len(recipe.Entries)),
		SealedRecipe: sealed,
	}
	if err := r.catalog.Add(rec); err != nil {
		return Snapshot{}, err
	}
	if err := r.store.RegisterBackup(name, recipe); err != nil {
		// Roll the catalog back so it never disagrees with retention
		// state; the uploaded chunks fall to the next GC.
		_ = r.catalog.Delete(name)
		return Snapshot{}, err
	}
	r.ownMu.Lock()
	r.own[name] = struct{}{}
	if sums := client.Sums(); sums != nil {
		r.sums[tenantOf(name)] = ownSums{name, sums}
	}
	r.ownMu.Unlock()
	return Snapshot{
		Name:         name,
		CreatedAt:    created,
		LogicalBytes: rec.LogicalBytes,
		Chunks:       len(recipe.Entries),
	}, nil
}

// ownSums is the plaintext SHA-256 of each entry of the named snapshot's
// recipe, in recipe order.
type ownSums struct {
	name string
	sums []mle.Key
}

// parent returns the parent of a Backup named name, with its entries'
// plaintext SHA-256s when they are not its keys (see
// dedup.Client.SetParent): the recipe of the newest snapshot by
// (CreatedUnix, Name) in name's own tenant namespace. Keeping to the
// namespace means a recipe a network tenant committed never vouches for
// another namespace's chunks. It is nil when no snapshot qualifies, when
// the parent's recipe does not open, and, under an encryption other than
// convergent, when this instance holds no sums for the parent: it holds
// them only for the newest snapshot it backed up in each namespace, and
// none after a reopen. The parent only saves work, so it never fails a
// backup. Cuts are predicted from it only if this instance backed it up,
// under its own r.cfg.Chunking: a recipe does not say how it was chunked.
// The caller holds gcMu's read side, which keeps GC and Repair from
// dropping the parent's chunks until the backup is registered.
func (r *Repository) parent(name string) (recipe *mle.Recipe, sums []mle.Key, predict bool) {
	var parent *dedup.SnapshotRecord
	tenant := tenantOf(name)
	recs := r.catalog.List()
	for i := range recs {
		rec := &recs[i]
		if tenantOf(rec.Name) != tenant {
			continue
		}
		// List is sorted by name, so a tie on CreatedUnix goes to the
		// later one.
		if parent == nil || rec.CreatedUnix >= parent.CreatedUnix {
			parent = rec
		}
	}
	if parent == nil {
		return nil, nil, false
	}
	r.ownMu.Lock()
	_, predict = r.own[parent.Name]
	own := r.sums[tenant]
	r.ownMu.Unlock()
	if r.cfg.Encryption != 0 && r.cfg.Encryption != dedup.EncConvergent {
		if own.name != parent.Name {
			return nil, nil, false
		}
		sums = own.sums
	}
	recipe, err := mle.OpenRecipe(parent.SealedRecipe, r.key)
	if err != nil {
		return nil, nil, false
	}
	return recipe, sums, predict
}

// Restore writes the named snapshot's original bytes to w: the restore is
// planned from the recipe, reads each container it needs once into a
// bounded window, and writes MiB-scale slabs in stream order (see
// dedup.Client.Restore). Cancelling ctx stops it promptly with ctx.Err();
// bytes already written to w stay written (the output is a strict prefix).
func (r *Repository) Restore(ctx context.Context, name string, w io.Writer) error {
	rec, ok := r.catalog.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrSnapshotNotFound, name)
	}
	recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
	if err != nil {
		return fmt.Errorf("freqdedup: open snapshot %q recipe: %w", name, err)
	}
	client, err := dedup.NewClient(r.store, r.cfg)
	if err != nil {
		return err
	}
	return client.RestoreContext(ctx, recipe, w)
}

// Snapshots lists the repository's snapshots sorted by name, each with
// its size and chunk count. The listing needs no decryption: the summary
// metadata lives beside the sealed recipes in the catalog.
func (r *Repository) Snapshots() []Snapshot {
	recs := r.catalog.List()
	out := make([]Snapshot, len(recs))
	for i, rec := range recs {
		out[i] = Snapshot{
			Name:         rec.Name,
			CreatedAt:    time.Unix(rec.CreatedUnix, 0),
			LogicalBytes: rec.LogicalBytes,
			Chunks:       int(rec.Chunks),
		}
	}
	return out
}

// Delete removes the named snapshot from the catalog (durably, before
// Delete returns) and drops its chunk references. Chunk data is reclaimed
// by the next GC, not here — other snapshots may share the chunks.
func (r *Repository) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.ensureRetention(); err != nil {
		return err
	}
	if err := r.catalog.Delete(name); err != nil {
		return err
	}
	r.ownMu.Lock()
	delete(r.own, name)
	if t := tenantOf(name); r.sums[t].name == name {
		delete(r.sums, t)
	}
	r.ownMu.Unlock()
	if err := r.store.DeleteBackup(name); err != nil && !errors.Is(err, dedup.ErrUnknownBackup) {
		return err
	}
	return nil
}

// GC reclaims every chunk no snapshot references, compacting the
// containers that held them. Thanks to the catalog, this is safe at any
// point in the repository's life — including right after OpenRepository,
// where the raw Store API would have reclaimed everything. GC waits for
// in-flight Backups to finish (and blocks new ones) for the duration of
// the sweep. Cancelling ctx stops the sweep between shards with partial
// stats and ctx.Err(); already-swept shards keep their compacted state
// and a re-run completes the sweep.
func (r *Repository) GC(ctx context.Context) (GCStats, error) {
	if err := r.ensureRetention(); err != nil {
		return GCStats{}, err
	}
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	return r.store.GCContext(ctx)
}

// Verify checks the whole repository: every stored chunk's bytes against
// its fingerprint (and, in FileBackend containers, every record's
// checksum), then every snapshot's sealed recipe against the
// repository key and every recipe entry against the store's index — so a
// nil return means every snapshot is restorable as written. Cancelling
// ctx stops the scan with ctx.Err().
func (r *Repository) Verify(ctx context.Context) error {
	if err := r.store.Verify(ctx); err != nil {
		return err
	}
	for _, rec := range r.catalog.List() {
		if err := ctx.Err(); err != nil {
			return err
		}
		recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
		if err != nil {
			return fmt.Errorf("freqdedup: verify snapshot %q: unsealing recipe: %w", rec.Name, err)
		}
		for i, e := range recipe.Entries {
			if !r.store.Contains(e.Fingerprint) {
				return fmt.Errorf("freqdedup: verify snapshot %q: chunk %d (%v) missing from store",
					rec.Name, i, e.Fingerprint)
			}
		}
	}
	return nil
}

// DegradedError reports a restore that completed with zero-filled holes
// where chunks were unrecoverable; see WithDegradedRestore.
type DegradedError = dedup.DegradedError

// LostRange is one zero-filled region of a degraded restore's output.
type LostRange = dedup.LostRange

// SnapshotDamage describes what a Repair found missing from one snapshot.
type SnapshotDamage struct {
	// Name is the snapshot's name.
	Name string
	// ChunksLost is how many of the snapshot's unique chunks the store no
	// longer holds.
	ChunksLost int
	// BytesLost is the ciphertext size of the lost chunks.
	BytesLost uint64
	// TotalChunks is the snapshot's unique chunk count, for scale.
	TotalChunks int
	// RecipeUnreadable marks a snapshot whose sealed recipe failed to
	// open (authentication failure — corrupt record or wrong key); the
	// snapshot is unrestorable and its chunk counts are unknown.
	RecipeUnreadable bool
}

// RepairReport is a Repair's full account of what was found and dropped.
type RepairReport struct {
	// ContainersQuarantined counts unreadable containers dropped from the
	// store (their raw records preserved at QuarantinePaths).
	ContainersQuarantined int
	// ChunksLost and BytesLost measure the distinct chunks the store no
	// longer holds after the repair.
	ChunksLost int
	BytesLost  uint64
	// QuarantinePaths lists the preserved raw records of quarantined
	// containers, for forensics.
	QuarantinePaths []string
	// SalvageContainersLost and SalvageBytesSkipped report what the
	// salvage open (WithSalvage) had to skip in the container shards
	// before Repair even ran; zero for a cleanly opened repository.
	SalvageContainersLost int
	SalvageBytesSkipped   int64
	// CatalogRecordsDropped and CatalogBytesSkipped report the same for
	// the snapshot catalog: snapshot records lost to on-disk damage.
	CatalogRecordsDropped int
	CatalogBytesSkipped   int64
	// Snapshots lists every snapshot that lost chunks (or its recipe),
	// sorted by name. An empty list means every remaining snapshot is
	// fully restorable.
	Snapshots []SnapshotDamage
}

// Damaged reports whether the repair found any loss at all.
func (r *RepairReport) Damaged() bool {
	return r.ContainersQuarantined > 0 || r.ChunksLost > 0 ||
		r.SalvageContainersLost > 0 || r.SalvageBytesSkipped > 0 ||
		r.CatalogRecordsDropped > 0 || r.CatalogBytesSkipped > 0 ||
		len(r.Snapshots) > 0
}

// Repair is the repository fsck: it scans every container tolerantly,
// quarantines the unreadable ones (preserving their raw bytes for
// forensics), drops chunks whose content no longer matches their
// fingerprint, repacks the survivors into a clean layout, rebuilds the
// fingerprint index, resets retention state, and re-registers every
// snapshot's references from the catalog — then reports exactly which
// snapshots lost which chunks. After a nil-error Repair, the store is
// writable again (a salvage-mode open's seal refusal is lifted), Verify's
// chunk checks agree with physical reality, and restores of undamaged
// snapshots are byte-identical; damaged snapshots restore with
// WithDegradedRestore, zero-filled exactly at the reported losses.
//
// Repair stops the world like GC: it waits for in-flight Backups and
// blocks new ones for the duration. Cancelling ctx stops it between
// shards with ctx.Err(); already-repaired shards keep their repaired
// state and a re-run completes the job.
func (r *Repository) Repair(ctx context.Context) (RepairReport, error) {
	// Repair resets retention and re-registers from the catalog itself;
	// running ensureRetention first keeps the once-state consistent so a
	// later Backup/GC does not re-register on top of Repair's rebuild.
	if err := r.ensureRetention(); err != nil {
		return RepairReport{}, err
	}
	r.gcMu.Lock()
	defer r.gcMu.Unlock()

	st, err := r.store.Repair(ctx)
	rep := RepairReport{
		ContainersQuarantined: st.ContainersQuarantined,
		ChunksLost:            st.ChunksLost,
		BytesLost:             st.BytesLost,
		QuarantinePaths:       st.QuarantinePaths,
		SalvageContainersLost: r.salvaged.ContainersLost,
		SalvageBytesSkipped:   r.salvaged.BytesSkipped,
		CatalogRecordsDropped: r.catSalvaged.RecordsDropped,
		CatalogBytesSkipped:   r.catSalvaged.BytesSkipped,
	}
	if err != nil {
		return rep, err
	}

	// Retention state was built against the pre-repair index; rebuild it
	// from the catalog so GC decisions match what the store now holds, and
	// measure each snapshot's damage along the way. RegisterBackup accepts
	// fingerprints missing from the index — a damaged snapshot stays
	// registered, so its surviving chunks are still GC-protected.
	r.store.ResetRetention()
	for _, rec := range r.catalog.List() {
		recipe, oerr := mle.OpenRecipe(rec.SealedRecipe, r.key)
		if oerr != nil {
			rep.Snapshots = append(rep.Snapshots, SnapshotDamage{
				Name:             rec.Name,
				RecipeUnreadable: true,
			})
			continue
		}
		if rerr := r.store.RegisterBackup(rec.Name, recipe); rerr != nil {
			return rep, fmt.Errorf("freqdedup: repair: re-register snapshot %q: %w", rec.Name, rerr)
		}
		dmg := SnapshotDamage{Name: rec.Name}
		seen := make(map[Fingerprint]struct{}, len(recipe.Entries))
		for _, e := range recipe.Entries {
			if _, dup := seen[e.Fingerprint]; dup {
				continue
			}
			seen[e.Fingerprint] = struct{}{}
			dmg.TotalChunks++
			if !r.store.Contains(e.Fingerprint) {
				dmg.ChunksLost++
				dmg.BytesLost += uint64(e.Size)
			}
		}
		if dmg.ChunksLost > 0 {
			rep.Snapshots = append(rep.Snapshots, dmg)
		}
	}
	return rep, nil
}

// Stats reports the repository's deduplication effectiveness so far.
func (r *Repository) Stats() DedupStats { return r.store.Stats() }

// TraceLog returns the repository's adversary trace log, or nil when the
// observation tap was never enabled. Each committed trace replays one
// acknowledged Backup's upload stream into the attack engine — see
// TapBackup. The log stays valid until Close.
func (r *Repository) TraceLog() *TraceLog { return r.tapLog }

// teeObserver fans one tap out to the trace-log session and the caller's
// observer. The session records first: the durable adversary log must
// not miss a window the caller already saw.
type teeObserver struct {
	sess *tracelog.Session
	obs  UploadObserver
}

func (t teeObserver) ObserveUpload(refs []trace.ChunkRef) error {
	if err := t.sess.ObserveUpload(refs); err != nil {
		return err
	}
	return t.obs.ObserveUpload(refs)
}

// Close seals open containers and releases the repository's files. Every
// acknowledged snapshot is already durable before Close; closing exists
// to release resources (and to seal chunks uploaded by raw-store users
// bypassing Backup). The repository must not be used afterwards.
//
// Close is idempotent: a second call is a no-op returning nil. It is also
// safe after a failed Backup or a storage-layer error — each layer is
// closed independently, and the first error is reported without stopping
// the others from releasing their resources.
func (r *Repository) Close() error {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.store.Close()
	if cerr := r.catalog.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if r.tapLog != nil {
		if cerr := r.tapLog.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
