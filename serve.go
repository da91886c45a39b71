package freqdedup

import (
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"freqdedup/internal/dedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/server"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/wire"
)

// Multi-tenant server facade: NewRepositoryServer wraps a *Repository in
// the wire-protocol server (internal/server over internal/wire), and
// DialServer returns the matching network client. See internal/wire's
// package documentation for the frame format and session flow.
type (
	// RemoteClient is the network backup client. Its Backup is the
	// in-process backup pipeline with the wire as its sink: chunking and
	// convergent encryption run locally, each upload window's fingerprints
	// are negotiated with the server, and only the misses are uploaded.
	// A session's later backups encrypt only the chunks its last committed
	// backup did not hold, unless the server reports one missing.
	// Only convergent encryption goes over the wire. Restores use the same
	// connection. One RemoteClient serves one tenant session; run one per
	// goroutine for concurrency.
	RemoteClient = server.Client
	// RemoteClientConfig configures DialServer: tenant and token, plus the
	// pipeline's chunking and worker fan-out, which DialServer validates
	// as the local pipeline's dedup.NewClient does, before it connects.
	RemoteClientConfig = server.DialConfig
	// RemoteSnapshot describes one snapshot as reported over the wire.
	RemoteSnapshot = wire.SnapshotInfo
	// TenantUsage is one tenant's accounting: logical bytes backed up,
	// unique bytes occupied in the shared store, and the
	// exclusive-versus-shared chunk split — the cross-user dedup exposure
	// the paper's threat model turns on.
	TenantUsage = wire.TenantUsage
)

// DialServer connects and authenticates a RemoteClient to a repository
// server.
var DialServer = server.Dial

// NegotiationLogName is the negotiation transcript beside a served
// file-backed repository's catalog: the adversary view of the chunk
// negotiation rounds (see RepoServer).
const NegotiationLogName = "negotiation.fdt"

// NegotiationMissSuffix marks a negotiation-log trace as a session's miss
// stream (the chunks the server asked the client to upload); the trace
// labeled with the bare qualified snapshot name is the query stream.
const NegotiationMissSuffix = "?misses"

// ServerConfig configures NewRepositoryServer.
type ServerConfig struct {
	// Auth maps tenant names to bearer tokens (compared in constant
	// time). Nil runs an open server — any tenant name, no token; fine
	// for benchmarks and local experiments, not for deployment.
	Auth map[string]string
	// WindowChunks, MaxInflight, and MaxChunkBytes bound each session's
	// negotiation windows (server defaults if zero; see internal/server).
	WindowChunks  int
	MaxInflight   int
	MaxChunkBytes int
	// RateBytesPerSec shapes each connection's data plane (uploads and
	// restore streams) to this many bytes per second; 0 is unlimited.
	RateBytesPerSec float64
	// RateBurst is the shaping bucket capacity in bytes (rate-derived
	// default if zero).
	RateBurst int
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// RepoServer exposes one shared Repository to many concurrent network
// clients: per-tenant authentication, tenant-prefixed snapshot namespacing
// over the shared chunk store (so cross-tenant duplicates are stored
// once), the chunk-negotiation round, per-connection rate shaping, and
// graceful drain.
//
// Serving also records the negotiation transcript — the new adversary
// view this deployment model creates. Every session's fingerprint queries
// (in order, pre-acknowledgment) and the server's miss answers are
// appended to a trace log (negotiation.fdt beside the catalog), committed
// even when the session aborts: the adversary on the wire saw them
// regardless of whether a snapshot appeared. Feed it to the attack engine
// exactly like the upload tap — see NegotiationLog and cmd/defend's -view
// flag.
type RepoServer struct {
	repo *Repository
	neg  *tracelog.Log
	srv  *server.Server

	closeMu sync.Mutex
	closed  bool
}

// NewRepositoryServer wraps repo in a wire-protocol server. The caller
// keeps ownership of repo (Close the server first, then the repository).
func NewRepositoryServer(repo *Repository, cfg ServerConfig) (*RepoServer, error) {
	var neg *tracelog.Log
	var err error
	negPath := filepath.Join(repo.path, NegotiationLogName)
	if _, statErr := repo.fsys.Stat(negPath); statErr == nil {
		neg, err = tracelog.OpenFS(repo.fsys, negPath)
	} else {
		neg, err = tracelog.CreateFS(repo.fsys, negPath)
	}
	if err != nil {
		return nil, err
	}
	var auth func(tenant string, token []byte) bool
	if cfg.Auth != nil {
		auth = server.TokenAuth(cfg.Auth)
	}
	srv, err := server.New(server.Config{
		Backend:         &repoBackend{r: repo, neg: neg},
		Auth:            auth,
		WindowChunks:    cfg.WindowChunks,
		MaxInflight:     cfg.MaxInflight,
		MaxChunkBytes:   cfg.MaxChunkBytes,
		RateBytesPerSec: cfg.RateBytesPerSec,
		RateBurst:       cfg.RateBurst,
		Logf:            cfg.Logf,
	})
	if err != nil {
		neg.Close()
		return nil, err
	}
	return &RepoServer{repo: repo, neg: neg, srv: srv}, nil
}

// Serve accepts connections on ln until shutdown; it returns nil after
// Shutdown/Close, or the accept error that stopped it.
func (s *RepoServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// ListenAndServe listens on addr and serves until shutdown.
func (s *RepoServer) ListenAndServe(addr string) error { return s.srv.ListenAndServe(addr) }

// Addr returns the serving listener's address (nil before Serve).
func (s *RepoServer) Addr() net.Addr { return s.srv.Addr() }

// Shutdown drains the server gracefully: in-flight backup sessions and
// streams finish, idle connections close, new work is refused. When ctx
// expires first, the stragglers are cut and ctx.Err() returned. The
// negotiation log stays open for reading until Close.
func (s *RepoServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close stops the server abruptly and closes the negotiation log. The
// wrapped Repository is the caller's to close. Idempotent.
func (s *RepoServer) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.srv.Close()
	if cerr := s.neg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// NegotiationLog returns the server's negotiation transcript. Each
// session contributes two committed traces: the query stream under the
// qualified snapshot name (every fingerprint the client asked about, in
// order — committed even for aborted sessions) and the miss stream under
// name+NegotiationMissSuffix. Both implement the attack engine's source
// interface, so negotiation leakage is measured exactly like the upload
// tap. Valid until Close.
func (s *RepoServer) NegotiationLog() *TraceLog { return s.neg }

// repoBackend adapts *Repository to the server's storage interface.
type repoBackend struct {
	r   *Repository
	neg *tracelog.Log
}

func (b *repoBackend) BeginBackup(name string) (server.BackupSession, error) {
	r := b.r
	if _, ok := r.catalog.Get(name); ok {
		return nil, fmt.Errorf("%w: %q", ErrSnapshotExists, name)
	}
	// Hold the GC-exclusion read lock for the whole session, exactly like
	// an in-process Backup: until Commit registers the snapshot, its
	// chunks look unreferenced to a sweep.
	r.gcMu.RLock()
	s := &repoSession{r: r, name: name}
	fail := func(err error) (server.BackupSession, error) {
		s.abortTraces()
		r.gcMu.RUnlock()
		return nil, err
	}
	var err error
	if r.tapLog != nil {
		if s.tap, err = r.tapLog.Begin(name); err != nil {
			return fail(err)
		}
	}
	if s.negQ, err = b.neg.Begin(name); err != nil {
		return fail(err)
	}
	if s.negM, err = b.neg.Begin(name + NegotiationMissSuffix); err != nil {
		return fail(err)
	}
	return s, nil
}

func (b *repoBackend) Restore(ctx context.Context, name string, w io.Writer) error {
	return b.r.Restore(ctx, name, w)
}

func (b *repoBackend) Snapshots(prefix string) []wire.SnapshotInfo {
	var out []wire.SnapshotInfo
	for _, rec := range b.r.catalog.List() {
		if !strings.HasPrefix(rec.Name, prefix) {
			continue
		}
		out = append(out, wire.SnapshotInfo{
			Name:         rec.Name,
			CreatedUnix:  rec.CreatedUnix,
			LogicalBytes: rec.LogicalBytes,
			Chunks:       rec.Chunks,
		})
	}
	return out
}

func (b *repoBackend) Delete(ctx context.Context, name string) error {
	return b.r.Delete(ctx, name)
}

func (b *repoBackend) TenantUsage(tenant string) (wire.TenantUsage, error) {
	all, err := b.r.TenantStats()
	if err != nil {
		return wire.TenantUsage{}, err
	}
	for _, u := range all {
		if u.Tenant == tenant {
			return u, nil
		}
	}
	return wire.TenantUsage{Tenant: tenant}, nil
}

// repoSession is one network backup session against the repository. The
// connection handler drives it serially; concurrent sessions share the
// store, whose batch operations are what actually serialize.
type repoSession struct {
	r    *Repository
	name string
	tap  *tracelog.Session // upload-tap view (traces.fdt), nil when untapped
	negQ *tracelog.Session // negotiation query stream
	negM *tracelog.Session // negotiation miss stream
	done bool

	fps      []fphash.Fingerprint
	miss     []bool
	missRefs []trace.ChunkRef
}

func (s *repoSession) Negotiate(refs []trace.ChunkRef) ([]bool, error) {
	// Transcripts first: the wire adversary sees the query (and, for the
	// tap, the logical upload order) before the server answers. The query
	// stream in negotiation order equals the upload stream the in-process
	// tap records, so traces.fdt stays comparable across deployment
	// models.
	if s.tap != nil {
		if err := s.tap.ObserveUpload(refs); err != nil {
			return nil, err
		}
	}
	if err := s.negQ.ObserveUpload(refs); err != nil {
		return nil, err
	}
	s.fps = s.fps[:0]
	for _, r := range refs {
		s.fps = append(s.fps, r.FP)
	}
	s.miss = s.r.store.ContainsBatch(s.fps, s.miss)
	s.missRefs = s.missRefs[:0]
	for i, m := range s.miss {
		if m {
			s.missRefs = append(s.missRefs, refs[i])
		}
	}
	if len(s.missRefs) > 0 {
		if err := s.negM.ObserveUpload(s.missRefs); err != nil {
			return nil, err
		}
	}
	return s.miss, nil
}

func (s *repoSession) PutChunks(chunks []dedup.PutChunk) error {
	// PutBatch copies chunk data; the caller's buffers are only borrowed.
	_, err := s.r.store.PutBatch(chunks)
	return err
}

func (s *repoSession) Commit(entries []mle.RecipeEntry) (wire.SnapshotInfo, error) {
	defer s.finish()
	r := s.r
	recipe := &mle.Recipe{Entries: entries}
	// Same durability order as the in-process Backup: chunk data seals
	// and syncs before any trace commits or the snapshot is cataloged.
	if err := r.store.Sync(); err != nil {
		s.abortTraces()
		return wire.SnapshotInfo{}, err
	}
	// The negotiation transcript commits before we know whether the
	// snapshot registers — the adversary already saw those rounds — and
	// the tap commits under the in-process rule (durable data, no
	// snapshot yet; a later failure leaves a committed trace without a
	// snapshot, which is the correct adversary view: those windows did
	// cross the wire).
	if s.tap != nil {
		if err := s.tap.Commit(); err != nil {
			s.commitNegBestEffort()
			return wire.SnapshotInfo{}, err
		}
		s.tap = nil
	}
	if err := s.commitNeg(); err != nil {
		return wire.SnapshotInfo{}, err
	}
	sealed, err := recipe.Seal(r.key)
	if err != nil {
		return wire.SnapshotInfo{}, err
	}
	created := time.Unix(time.Now().Unix(), 0)
	rec := dedup.SnapshotRecord{
		Name:         s.name,
		CreatedUnix:  created.Unix(),
		LogicalBytes: recipe.TotalSize(),
		Chunks:       uint32(len(recipe.Entries)),
		SealedRecipe: sealed,
	}
	// Complete the deferred retention rebuild before registering: this
	// snapshot must not land in the once-guarded catalog sweep twice.
	if err := r.ensureRetention(); err != nil {
		return wire.SnapshotInfo{}, err
	}
	if err := r.catalog.Add(rec); err != nil {
		return wire.SnapshotInfo{}, err
	}
	if err := r.store.RegisterBackup(s.name, recipe); err != nil {
		_ = r.catalog.Delete(s.name)
		return wire.SnapshotInfo{}, err
	}
	return wire.SnapshotInfo{
		Name:         s.name,
		CreatedUnix:  rec.CreatedUnix,
		LogicalBytes: rec.LogicalBytes,
		Chunks:       rec.Chunks,
	}, nil
}

func (s *repoSession) Abort() {
	// The negotiation rounds happened on the wire whether or not a
	// snapshot appears, so the transcript commits; the tap mirrors the
	// in-process rule (no acknowledged snapshot, no committed trace).
	if s.tap != nil {
		s.tap.Abort()
		s.tap = nil
	}
	s.commitNegBestEffort()
	s.finish()
}

// commitNeg commits both negotiation streams, failing on the first error.
func (s *repoSession) commitNeg() error {
	if s.negQ != nil {
		if err := s.negQ.Commit(); err != nil {
			s.negQ = nil
			s.commitNegBestEffort()
			return err
		}
		s.negQ = nil
	}
	if s.negM != nil {
		err := s.negM.Commit()
		s.negM = nil
		return err
	}
	return nil
}

// commitNegBestEffort commits whatever negotiation streams remain,
// ignoring errors — used on paths that already have an error to report.
func (s *repoSession) commitNegBestEffort() {
	if s.negQ != nil {
		_ = s.negQ.Commit()
		s.negQ = nil
	}
	if s.negM != nil {
		_ = s.negM.Commit()
		s.negM = nil
	}
}

// abortTraces discards every open trace session (BeginBackup failure
// path, before anything crossed the wire).
func (s *repoSession) abortTraces() {
	if s.tap != nil {
		s.tap.Abort()
		s.tap = nil
	}
	if s.negQ != nil {
		s.negQ.Abort()
		s.negQ = nil
	}
	if s.negM != nil {
		s.negM.Abort()
		s.negM = nil
	}
}

// finish releases the GC-exclusion lock exactly once.
func (s *repoSession) finish() {
	if !s.done {
		s.done = true
		s.r.gcMu.RUnlock()
	}
}

// tenantOf splits a qualified snapshot name: everything before the first
// '/' is the tenant, "" for un-namespaced (in-process) snapshots.
func tenantOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return ""
}

// TenantStats reports per-tenant accounting over the whole repository,
// sorted by tenant: snapshot counts, logical (pre-dedup) bytes, the
// unique chunk footprint each tenant occupies in the shared store, and
// the exclusive-versus-shared split of that footprint. A snapshot's
// tenant is its name's prefix before the first '/' (the server's
// namespacing convention); snapshots without one — in-process backups —
// group under the "" tenant. Chunk sizes are ciphertext sizes, which the
// length-preserving CTR encryption makes equal to plaintext sizes.
//
// The shared/exclusive split is the deployment-facing face of the
// paper's threat model: a chunk shared across tenants is exactly one
// whose existence the negotiation round reveals to the other tenant.
func (r *Repository) TenantStats() ([]TenantUsage, error) {
	type chunkOwner struct {
		size   uint32
		tenant string
		shared bool
	}
	owners := make(map[Fingerprint]*chunkOwner)
	tenantFPs := make(map[string]map[Fingerprint]struct{})
	usage := make(map[string]*TenantUsage)
	for _, rec := range r.catalog.List() {
		t := tenantOf(rec.Name)
		u := usage[t]
		if u == nil {
			u = &TenantUsage{Tenant: t}
			usage[t] = u
			tenantFPs[t] = make(map[Fingerprint]struct{})
		}
		u.Snapshots++
		u.LogicalBytes += rec.LogicalBytes
		recipe, err := mle.OpenRecipe(rec.SealedRecipe, r.key)
		if err != nil {
			return nil, fmt.Errorf("freqdedup: tenant stats: open snapshot %q recipe: %w", rec.Name, err)
		}
		fps := tenantFPs[t]
		for _, e := range recipe.Entries {
			fps[e.Fingerprint] = struct{}{}
			o := owners[e.Fingerprint]
			if o == nil {
				owners[e.Fingerprint] = &chunkOwner{size: e.Size, tenant: t}
			} else if o.tenant != t {
				o.shared = true
			}
		}
	}
	out := make([]TenantUsage, 0, len(usage))
	for t, u := range usage {
		for fp := range tenantFPs[t] {
			o := owners[fp]
			if o.shared {
				u.SharedChunks++
				u.SharedBytes += uint64(o.size)
			} else {
				u.ExclusiveChunks++
				u.ExclusiveBytes += uint64(o.size)
			}
		}
		u.StoredBytes = u.ExclusiveBytes + u.SharedBytes
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out, nil
}
