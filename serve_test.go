package freqdedup

// End-to-end acceptance of the multi-tenant server: concurrent network
// tenants over one shared repository produce exactly the store a serial
// in-process run produces; a server killed mid-session keeps every
// acknowledged snapshot and loses every unacknowledged one; and the
// negotiation transcript alone reproduces the paper's attack ordering
// beside the upload-tap baseline.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/faultio"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/wire"
)

// startRepoServer wraps repo in a RepoServer on a loopback listener.
func startRepoServer(t *testing.T, repo *Repository, cfg ServerConfig) (*RepoServer, string) {
	t.Helper()
	rs, err := NewRepositoryServer(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := rs.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		rs.Close()
		<-done
	})
	return rs, ln.Addr().String()
}

// TestServerConcurrentTenantsMatchSerial is the tentpole acceptance: N
// concurrent loopback tenants backing up overlapping workload generations
// must leave the shared repository logically identical to a serial
// in-process run of the same streams — same snapshot set, byte-identical
// restores, identical per-tenant chunk accounting — and everything must
// survive a close-and-reopen.
func TestServerConcurrentTenantsMatchSerial(t *testing.T) {
	const tenants = 4
	ctx := context.Background()

	ds, err := GenerateWorkload("fileserver", WorkloadConfig{Seed: 5, Backups: 3, TotalBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([][]byte, len(ds.Backups))
	for i := range ds.Backups {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(WorkloadDataReader(ds.Backups[i])); err != nil {
			t.Fatal(err)
		}
		gens[i] = buf.Bytes()
	}

	var key Key
	copy(key[:], "concurrent tenants test key")
	dir := t.TempDir()
	repo, err := CreateRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startRepoServer(t, repo, ServerConfig{})

	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialServer(addr, RemoteClientConfig{Tenant: fmt.Sprintf("t%d", i)})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for j, g := range gens {
				if _, err := c.Backup(ctx, fmt.Sprintf("gen-%d", j), bytes.NewReader(g)); err != nil {
					errs[i] = fmt.Errorf("gen %d: %w", j, err)
					return
				}
			}
			// Each tenant restores its latest generation over the wire.
			var got bytes.Buffer
			if err := c.Restore(ctx, fmt.Sprintf("gen-%d", len(gens)-1), &got); err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got.Bytes(), gens[len(gens)-1]) {
				errs[i] = fmt.Errorf("remote restore bytes differ")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}

	// Serial in-process reference: the same streams, same qualified
	// names, one at a time.
	refDir := t.TempDir()
	ref, err := CreateRepository(refDir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < tenants; i++ {
		for j, g := range gens {
			if _, err := ref.Backup(ctx, fmt.Sprintf("t%d/gen-%d", i, j), bytes.NewReader(g)); err != nil {
				t.Fatal(err)
			}
		}
	}

	compare := func(r *Repository) {
		t.Helper()
		snaps := r.Snapshots()
		refSnaps := ref.Snapshots()
		if len(snaps) != len(refSnaps) {
			t.Fatalf("%d snapshots, serial reference has %d", len(snaps), len(refSnaps))
		}
		for i := range snaps {
			if snaps[i].Name != refSnaps[i].Name ||
				snaps[i].LogicalBytes != refSnaps[i].LogicalBytes ||
				snaps[i].Chunks != refSnaps[i].Chunks {
				t.Fatalf("snapshot %d: %+v vs serial %+v", i, snaps[i], refSnaps[i])
			}
		}
		// The per-tenant accounting is recipe-derived — identical chunk
		// sets must give identical exclusive/shared splits regardless of
		// upload interleaving.
		stats, err := r.TenantStats()
		if err != nil {
			t.Fatal(err)
		}
		refStats, err := ref.TenantStats()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", stats) != fmt.Sprintf("%+v", refStats) {
			t.Fatalf("tenant stats diverge:\n  server: %+v\n  serial: %+v", stats, refStats)
		}
		if err := r.Verify(ctx); err != nil {
			t.Fatalf("verify: %v", err)
		}
		for i := 0; i < tenants; i++ {
			for j, g := range gens {
				mustRestore(t, r, fmt.Sprintf("t%d/gen-%d", i, j), g)
			}
		}
	}
	compare(repo)

	// Full overlap across tenants: everything after tenant 0 dedups, so
	// each tenant's footprint is entirely shared and the store holds one
	// tenant's worth of unique bytes.
	stats, err := repo.TenantStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != tenants {
		t.Fatalf("%d tenant rows, want %d", len(stats), tenants)
	}
	for _, u := range stats {
		if u.ExclusiveChunks != 0 || u.SharedChunks == 0 {
			t.Fatalf("fully-overlapping tenant %q: %+v", u.Tenant, u)
		}
	}

	// Acked ⇒ durable: reopen cold and compare again.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenRepository(dir, WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compare(reopened)
}

// TestServerKillMidSessionDurability: a server killed with a session
// mid-flight keeps every acknowledged snapshot restorable and loses the
// unacknowledged one — and the negotiation transcript of the committed
// session survives the crash.
func TestServerKillMidSessionDurability(t *testing.T) {
	m := faultio.NewMemFS()
	var key Key
	copy(key[:], "kill mid session key")
	repo, err := CreateRepository("repo", WithFileSystem(m), WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	rs, addr := startRepoServer(t, repo, ServerConfig{})
	ctx := context.Background()

	// Alice completes a backup: acknowledged, so it must survive.
	alice, err := DialServer(addr, RemoteClientConfig{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	dataA := repoData(31, 2<<20)
	if _, err := alice.Backup(ctx, "ok", bytes.NewReader(dataA)); err != nil {
		t.Fatal(err)
	}

	// Bob's session negotiates and uploads but never commits: the raw
	// wire dance a well-behaved client cannot express.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(nc)
	hello, err := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.THello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.THelloOK {
		t.Fatalf("handshake: typ %d err %v", typ, err)
	}
	name, err := wire.AppendName(nil, "unacked")
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.TBackupBegin, name); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TBackupReady {
		t.Fatalf("begin: typ %d err %v", typ, err)
	}
	chunk := repoData(32, 64<<10)
	ct := EncryptDeterministic(ConvergentKey(chunk), chunk)
	ref := trace.ChunkRef{FP: fphash.FromBytes(ct), Size: uint32(len(ct))}
	if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, 0, []trace.ChunkRef{ref})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TNegotiateReply {
		t.Fatalf("negotiate: typ %d err %v", typ, err)
	}
	if err := wc.Send(wire.TChunkData, wire.AppendChunkData(nil, 0, [][]byte{ct})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TWindowAck {
		t.Fatalf("ack: typ %d err %v", typ, err)
	}

	// Kill: snapshot the filesystem as a crash would leave it, with Bob's
	// session still open and unacknowledged.
	img := m.CrashImage()
	rs.Close()
	repo.Close()

	reopened, err := OpenRepository("repo", WithFileSystem(img), WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	snaps := reopened.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "alice/ok" {
		t.Fatalf("snapshots after crash = %+v, want exactly alice/ok", snaps)
	}
	mustRestore(t, reopened, "alice/ok", dataA)
	if err := reopened.Verify(context.Background()); err != nil {
		t.Fatalf("verify after crash: %v", err)
	}

	// The committed session's negotiation transcript survives the crash;
	// Bob's uncommitted streams do not.
	neg, err := tracelog.OpenReadOnlyFS(img, "repo/"+NegotiationLogName)
	if err != nil {
		t.Fatal(err)
	}
	defer neg.Close()
	labels := make(map[string]bool)
	for _, b := range neg.Backups() {
		labels[b.Label] = true
	}
	if !labels["alice/ok"] || !labels["alice/ok"+NegotiationMissSuffix] {
		t.Fatalf("negotiation transcript lost the committed session: %v", labels)
	}
	for l := range labels {
		if strings.HasPrefix(l, "bob/") {
			t.Fatalf("uncommitted session leaked into the transcript: %q", l)
		}
	}
}

// TestServerAbortCommitsNegotiationTranscript: a session the client
// abandons leaves no snapshot but does leave its negotiation transcript —
// the wire adversary saw those rounds regardless.
func TestServerAbortCommitsNegotiationTranscript(t *testing.T) {
	repo, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	rs, addr := startRepoServer(t, repo, ServerConfig{})

	// Raw wire session: handshake, begin, one negotiation round, then
	// vanish without committing.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(nc)
	hello, err := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.THello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.THelloOK {
		t.Fatalf("handshake: typ %d err %v", typ, err)
	}
	name, err := wire.AppendName(nil, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Send(wire.TBackupBegin, name); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TBackupReady {
		t.Fatalf("begin: typ %d err %v", typ, err)
	}
	chunk := repoData(77, 64<<10)
	ct := EncryptDeterministic(ConvergentKey(chunk), chunk)
	ref := trace.ChunkRef{FP: fphash.FromBytes(ct), Size: uint32(len(ct))}
	if err := wc.Send(wire.TNegotiate, wire.AppendNegotiate(nil, 0, []trace.ChunkRef{ref})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.Recv(); err != nil || typ != wire.TNegotiateReply {
		t.Fatalf("negotiate: typ %d err %v", typ, err)
	}
	nc.Close() // abandon mid-session

	// Drain: the disconnected session's handler aborts and finishes
	// before Shutdown returns.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := rs.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if n := len(repo.Snapshots()); n != 0 {
		t.Fatalf("aborted session registered %d snapshots", n)
	}
	var sawQuery bool
	for _, b := range rs.NegotiationLog().Backups() {
		if b.Label == "alice/doomed" {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Fatal("aborted session left no negotiation transcript")
	}
}

// TestInMemoryServerRecordsNegotiationLog: an in-memory repository's
// server writes negotiation.fdt like a file-backed one's, to the
// repository's private filesystem, and a remote backup's queries and
// misses land in it.
func TestInMemoryServerRecordsNegotiationLog(t *testing.T) {
	repo, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	rs, addr := startRepoServer(t, repo, ServerConfig{})
	c, err := DialServer(addr, RemoteClientConfig{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Backup(context.Background(), "snap", bytes.NewReader(repoData(111, 1<<20)))
	c.Close()
	if err != nil {
		t.Fatal(err)
	}

	neg := rs.NegotiationLog()
	if filepath.Base(neg.Path()) != NegotiationLogName {
		t.Fatalf("negotiation log path %q, want a %s file", neg.Path(), NegotiationLogName)
	}
	if st, err := repo.fsys.Stat(neg.Path()); err != nil || st.Size() == 0 {
		t.Fatalf("negotiation log on the repository's filesystem: %v", err)
	}
	counts := map[string]int64{}
	for _, b := range neg.Backups() {
		counts[b.Label] = b.Chunks
	}
	if counts["t/snap"] != int64(snap.Chunks) || counts["t/snap"+NegotiationMissSuffix] == 0 {
		t.Fatalf("negotiation traces %v, want %d queries and some misses for t/snap", counts, snap.Chunks)
	}
}

// TestNegotiationTranscriptAttack: the paper's attack ordering (locality
// attack on MLE ≫ MinHash+scramble) reproduced from the negotiation
// transcript alone, and the transcript's query streams are
// chunk-for-chunk the upload-tap view — the negotiation round leaks the
// full Section 3.3 adversary stream before a single byte is uploaded.
func TestNegotiationTranscriptAttack(t *testing.T) {
	dir := t.TempDir()
	repo, err := CreateRepository(dir, WithUploadObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	rs, addr := startRepoServer(t, repo, ServerConfig{})

	c, err := DialServer(addr, RemoteClientConfig{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	names := []string{"mon", "tue", "wed"}
	for i, data := range tapWorkload() {
		if _, err := c.Backup(ctx, names[i], bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	if err := rs.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	// Split the transcript into query streams and miss streams.
	var queries, misses []*TapBackup
	for _, b := range rs.NegotiationLog().Backups() {
		if strings.HasSuffix(b.Label, NegotiationMissSuffix) {
			misses = append(misses, b)
		} else {
			queries = append(queries, b)
		}
	}
	if len(queries) != 3 || len(misses) != 3 {
		t.Fatalf("%d query + %d miss streams, want 3 + 3", len(queries), len(misses))
	}

	// The query stream equals the upload-tap stream chunk for chunk: the
	// negotiation side channel subsumes the tap baseline.
	taps := repo.TraceLog().Backups()
	if len(taps) != 3 {
		t.Fatalf("%d tap traces, want 3", len(taps))
	}
	for i := range taps {
		if queries[i].Label != taps[i].Label {
			t.Fatalf("query %d labeled %q, tap %q", i, queries[i].Label, taps[i].Label)
		}
		qb, err := queries[i].Materialize()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := taps[i].Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if len(qb.Chunks) != len(tb.Chunks) {
			t.Fatalf("backup %d: %d negotiated chunks, %d tapped", i, len(qb.Chunks), len(tb.Chunks))
		}
		for j := range qb.Chunks {
			if qb.Chunks[j] != tb.Chunks[j] {
				t.Fatalf("backup %d chunk %d: negotiation %v, tap %v", i, j, qb.Chunks[j], tb.Chunks[j])
			}
		}
	}
	// The first backup of an empty store misses everything; later ones
	// miss strictly less — dedup state observable on the wire.
	first, err := misses[0].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	last, err := misses[2].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	q0, _ := queries[0].Materialize()
	if len(first.Chunks) != len(q0.Chunks) {
		t.Fatalf("first backup missed %d of %d chunks, want all", len(first.Chunks), len(q0.Chunks))
	}
	q2, _ := queries[2].Materialize()
	if len(last.Chunks) >= len(q2.Chunks) {
		t.Fatalf("third backup missed %d of %d chunks — no cross-backup dedup visible", len(last.Chunks), len(q2.Chunks))
	}

	// The Figure 10 methodology on the negotiation transcript alone.
	aux, err := queries[0].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	target, err := queries[2].Materialize()
	if err != nil {
		t.Fatal(err)
	}
	const leakRate = 0.02
	cfg := attack.Config{U: 1, V: 15, W: 200000, Mode: attack.KnownPlaintext}
	rate := func(scheme defense.Scheme) float64 {
		enc, err := defense.Encrypt(target, scheme, 11)
		if err != nil {
			t.Fatal(err)
		}
		cc := cfg
		cc.Leaked = attack.SampleLeaked(enc.Backup, enc.Truth, leakRate, 42)
		res, err := attack.NewLocality(cc).Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return res.InferenceRate(enc.Truth)
	}
	mleRate := rate(defense.SchemeMLE)
	combined := rate(defense.SchemeCombined)
	if mleRate <= 2*leakRate {
		t.Fatalf("negotiation-transcript attack on MLE never expanded past its seeds (rate %v)", mleRate)
	}
	if combined >= mleRate {
		t.Fatalf("MinHash+scramble rate %v not below MLE rate %v on the negotiation transcript", combined, mleRate)
	}
	t.Logf("negotiation-transcript inference rates: MLE %.2f%%, MinHash+scramble %.2f%%", mleRate*100, combined*100)
}

// TestTenantStatsAccounting: exclusive and shared chunk accounting over a
// mixed workload — two tenants sharing a common core, each with private
// data, plus an un-namespaced in-process snapshot grouped under "".
func TestTenantStatsAccounting(t *testing.T) {
	repo, err := CreateRepository("")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	_, addr := startRepoServer(t, repo, ServerConfig{})
	ctx := context.Background()

	shared := repoData(101, 1<<20)
	onlyA := repoData(102, 512<<10)
	onlyB := repoData(103, 768<<10)

	for tenant, data := range map[string][]byte{
		"a": append(append([]byte(nil), shared...), onlyA...),
		"b": append(append([]byte(nil), shared...), onlyB...),
	} {
		c, err := DialServer(addr, RemoteClientConfig{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		// The wire Stats answer must agree with the repository's own
		// accounting for this tenant.
		u, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if u.Tenant != tenant || u.Snapshots != 1 || u.StoredBytes == 0 {
			t.Fatalf("wire stats for %q = %+v", tenant, u)
		}
		c.Close()
	}
	// An in-process backup lands in the "" tenant.
	if _, err := repo.Backup(ctx, "local", bytes.NewReader(onlyA)); err != nil {
		t.Fatal(err)
	}

	stats, err := repo.TenantStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("%d tenant rows, want 3 (\"\", a, b): %+v", len(stats), stats)
	}
	byTenant := make(map[string]TenantUsage)
	for _, u := range stats {
		byTenant[u.Tenant] = u
	}
	a, b, local := byTenant["a"], byTenant["b"], byTenant[""]
	// a and b share the common core (and nothing else with each other),
	// and a's private data is also the "" tenant's whole snapshot — so a
	// keeps at most a few boundary-spanning chunks exclusive (the cut
	// points at the shared/private junction differ between the two
	// streams) while b retains a real exclusive footprint.
	if a.SharedChunks == 0 || b.SharedChunks == 0 || local.SharedChunks == 0 {
		t.Fatalf("no sharing detected: a=%+v b=%+v local=%+v", a, b, local)
	}
	if b.ExclusiveChunks == 0 {
		t.Fatalf("b has no exclusive chunks: %+v", b)
	}
	if a.ExclusiveBytes > uint64(len(onlyA))/4 {
		t.Fatalf("a's private data should dedup against the local snapshot, yet a=%+v", a)
	}
	for _, u := range []TenantUsage{a, b, local} {
		if u.StoredBytes != u.ExclusiveBytes+u.SharedBytes {
			t.Fatalf("stored != exclusive + shared: %+v", u)
		}
		if u.LogicalBytes < u.StoredBytes {
			t.Fatalf("logical < stored: %+v", u)
		}
	}
	// The shared core chunks appear in both a's and b's shared counts.
	if a.SharedBytes < uint64(len(shared))/2 || b.SharedBytes < uint64(len(shared))/2 {
		t.Fatalf("shared core unaccounted: a=%+v b=%+v", a, b)
	}
}

// TestServerSealBatching: concurrent remote commits against a slow disk
// share container seal passes by absorption alone — strictly fewer
// store-level flush passes than backups.
func TestServerSealBatching(t *testing.T) {
	const n = 8
	cfs := newCountingFS(faultio.NewMemFS())
	cfs.syncDelay = 5 * time.Millisecond
	var key Key
	copy(key[:], "seal batching key")
	repo, err := CreateRepository("repo", WithFileSystem(cfs), WithRepositoryKey(key))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	_, addr := startRepoServer(t, repo, ServerConfig{})
	ctx := context.Background()

	pre := repo.store.SealSyncs()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialServer(addr, RemoteClientConfig{Tenant: fmt.Sprintf("t%d", i)})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			_, errs[i] = c.Backup(ctx, "snap", bytes.NewReader(repoData(int64(200+i), 256<<10)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	if d := repo.store.SealSyncs() - pre; d >= n {
		t.Errorf("seal passes not batched: %d passes for %d concurrent commits", d, n)
	} else {
		t.Logf("store: %d seal passes for %d concurrent commits", d, n)
	}
	for i := 0; i < n; i++ {
		mustRestore(t, repo, fmt.Sprintf("t%d/snap", i), repoData(int64(200+i), 256<<10))
	}
}

// TestRecipeEntriesMatchRemote: the remote client runs the in-process
// backup pipeline with the wire as its sink, so under every window
// geometry a remote backup's sealed recipe (opened with the repository
// key) matches an in-process backup of the same bytes entry for entry,
// and the negotiation transcript's query stream matches the in-process
// upload tap chunk for chunk. 10 MiB is over one 1024-chunk pipeline
// window, so the 100-chunk server splits windows with a remainder.
func TestRecipeEntriesMatchRemote(t *testing.T) {
	gear := DefaultChunkingParams()
	gear.Algorithm = AlgoGear
	cases := []struct {
		name   string
		server ServerConfig
		remote RemoteClientConfig
		local  []RepositoryOption
	}{
		{name: "defaults"},
		{
			name:   "gear",
			remote: RemoteClientConfig{Chunking: gear},
			local:  []RepositoryOption{WithChunking(gear)},
		},
		{
			name:   "1-worker",
			remote: RemoteClientConfig{Workers: 1},
			local:  []RepositoryOption{WithWorkers(1)},
		},
		{
			name:   "server-window-100-inflight-1",
			server: ServerConfig{WindowChunks: 100, MaxInflight: 1},
		},
	}
	data := repoData(55, 10<<20)
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var key Key
			copy(key[:], "recipe parity key")
			repoA, err := CreateRepository("", WithRepositoryKey(key))
			if err != nil {
				t.Fatal(err)
			}
			defer repoA.Close()
			repoB, err := CreateRepository("", append([]RepositoryOption{WithRepositoryKey(key), WithUploadObserver(nil)}, tc.local...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer repoB.Close()
			rs, addr := startRepoServer(t, repoA, tc.server)

			cfg := tc.remote
			cfg.Tenant = "x"
			c, err := DialServer(addr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if _, err := repoB.Backup(ctx, "snap", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}

			open := func(r *Repository, name string) *mle.Recipe {
				t.Helper()
				rec, ok := r.catalog.Get(name)
				if !ok {
					t.Fatalf("snapshot %q missing", name)
				}
				recipe, err := mle.OpenRecipe(rec.SealedRecipe, key)
				if err != nil {
					t.Fatal(err)
				}
				return recipe
			}
			remote := open(repoA, "x/snap")
			local := open(repoB, "snap")
			if len(remote.Entries) != len(local.Entries) {
				t.Fatalf("remote recipe has %d entries, local %d", len(remote.Entries), len(local.Entries))
			}
			for i := range remote.Entries {
				if remote.Entries[i] != local.Entries[i] {
					t.Fatalf("entry %d: remote %+v, local %+v", i, remote.Entries[i], local.Entries[i])
				}
			}

			materialize := func(log *TraceLog, label string) []trace.ChunkRef {
				t.Helper()
				for _, b := range log.Backups() {
					if b.Label == label {
						m, err := b.Materialize()
						if err != nil {
							t.Fatal(err)
						}
						return m.Chunks
					}
				}
				t.Fatalf("no trace labeled %q", label)
				return nil
			}
			queries := materialize(rs.NegotiationLog(), "x/snap")
			tapped := materialize(repoB.TraceLog(), "snap")
			if len(queries) != len(tapped) || len(tapped) != len(local.Entries) {
				t.Fatalf("%d negotiated chunks, %d tapped, %d recipe entries", len(queries), len(tapped), len(local.Entries))
			}
			for i := range queries {
				if queries[i] != tapped[i] {
					t.Fatalf("chunk %d: negotiation %v, tap %v", i, queries[i], tapped[i])
				}
			}
		})
	}
}

// TestRemoteSessionParentInvisible holds the session's parent table to
// the adversary's view: four generations backed up through one
// RemoteClient, whose later backups negotiate parent-table hits it never
// encrypts, must leave a repository indistinguishable from four backups
// through four fresh clients, which encrypt everything. Each snapshot's
// recipe entries, the negotiation.fdt bytes and every container file must
// be identical both ways.
func TestRemoteSessionParentInvisible(t *testing.T) {
	gens := [][]byte{repoData(61, 2<<20)}
	for g := 1; g < 4; g++ {
		next := append([]byte(nil), gens[g-1]...)
		copy(next[g*len(next)/5:], repoData(int64(61+g), 32<<10))
		gens = append(gens, next)
	}
	var key Key
	copy(key[:], "session parent key")
	ctx := context.Background()
	// run backs the generations up into a fresh repository, dialing once
	// or once per generation, and returns the closed repository's path.
	run := func(oneSession bool) string {
		dir := t.TempDir()
		repo, err := CreateRepository(dir, WithRepositoryKey(key))
		if err != nil {
			t.Fatal(err)
		}
		rs, addr := startRepoServer(t, repo, ServerConfig{})
		var c *RemoteClient
		for g, data := range gens {
			if c == nil || !oneSession {
				if c != nil {
					c.Close()
				}
				if c, err = DialServer(addr, RemoteClientConfig{Tenant: "x"}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Backup(ctx, fmt.Sprintf("g%d", g), bytes.NewReader(data)); err != nil {
				t.Fatalf("generation %d: %v", g, err)
			}
		}
		c.Close()
		for g, data := range gens {
			mustRestore(t, repo, fmt.Sprintf("x/g%d", g), data)
		}
		rs.Close()
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	session, fresh := run(true), run(false)

	for g := range gens {
		recipes := make([]*mle.Recipe, 2)
		for i, dir := range []string{session, fresh} {
			r, err := OpenRepository(dir, WithRepositoryKey(key))
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := r.catalog.Get(fmt.Sprintf("x/g%d", g))
			if !ok {
				t.Fatalf("generation %d missing", g)
			}
			if recipes[i], err = mle.OpenRecipe(rec.SealedRecipe, key); err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
		if !reflect.DeepEqual(recipes[0], recipes[1]) {
			t.Fatalf("generation %d: recipe differs between one session and one client per generation", g)
		}
	}
	names, err := filepath.Glob(filepath.Join(fresh, "shard-*.fdc"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no container files (%v)", err)
	}
	for _, name := range append(names, filepath.Join(fresh, NegotiationLogName)) {
		base := filepath.Base(name)
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(session, base))
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(got) != sha256.Sum256(want) {
			t.Fatalf("%s differs between one session and one client per generation", base)
		}
	}
	if more, _ := filepath.Glob(filepath.Join(session, "shard-*.fdc")); len(more) != len(names) {
		t.Fatalf("%d container files with one session, %d with one client per generation", len(more), len(names))
	}
}
