package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"freqdedup"
	"freqdedup/internal/attack"
	"freqdedup/internal/defense"
	"freqdedup/internal/tracelog"
)

// Chrome trace lanes: spans on one lane nest.
const (
	laneDriver = 1
	laneVFS    = 2
	laneStages = 3
	laneTenant = 10 // + tenant index
)

// Known-plaintext locality attack parameters of defended-lab (the
// paper's u, v, w; 2 % of the target's unique chunks leaked).
const (
	attackU        = 1
	attackV        = 15
	attackW        = 200000
	attackLeakRate = 0.02
)

// scrambleSeed turns --seed into defended-lab's scrambling seed, which
// must not be 0 (0 asks for a fresh random order on every backup).
func (r *round) scrambleSeed() int64 { return 2*r.seed + 1 }

// diskSlack bounds how far the repository directory may exceed
// Stats().PhysicalBytes: container record headers and shard file headers,
// the catalog's sealed recipes, and the trace and negotiation logs, all of
// which grow with the chunk count (~8 KiB chunks, tens of bytes each).
const (
	diskSlackShare = 0.03
	diskSlackBytes = 256 << 10
)

// meter accumulates wall-clock, CPU and heap allocation over the timed
// phases of a round.
type meter struct {
	wall  time.Duration
	cpu   float64
	alloc uint64
}

func (m *meter) time(fn func()) time.Duration {
	a0, c0, t0 := totalAlloc(), cpuSeconds(), time.Now()
	fn()
	d := time.Since(t0)
	m.wall += d
	m.cpu += cpuSeconds() - c0
	m.alloc += totalAlloc() - a0
	return d
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuSeconds is the process's user+system CPU time so far: the client
// goroutines and the in-process server both count.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// round is one pass of a workload over a fresh repository directory.
type round struct {
	name  string // workload
	seed  int64
	index int // -1 for the warm-up
	in    *inputs
	dir   string
	tr    *tracer  // nil: tracing off
	cfs   *countFS // nil: the default filesystem

	mu                sync.Mutex // guards the three fields below
	attempted, failed int
	failures          []string

	// Raw quantities the metrics are computed from.
	backup, restore, other meter
	prep                   time.Duration
	backupBytes            int64 // logical bytes of the timed backups
	restoreBytes           int64
	logicalBytes           int64 // every backup, prep included
	diskBytes              int64
	attackChunks           int64
	attackWall             time.Duration
	layer                  map[string]float64 // traced rounds only
	backupIO, restoreIO    ioCounts
}

// op runs one counted operation: it fails if fn returns an error, be it
// the system's or an output check's.
func (r *round) op(what string, fn func() error) bool {
	err := fn()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("workload=%s round=%d seed=%d %s: %v", r.name, r.index, r.seed, what, err))
	return false
}

// spanned runs fn inside a span that wrappers below the program charge to.
func (r *round) spanned(name, req string, fn func()) time.Duration {
	id := r.tr.begin(name, req, r.tr.current(), laneDriver)
	prev := r.tr.enter(id)
	fn()
	r.tr.leave(prev)
	return r.tr.end(id)
}

// timedOp runs one counted operation inside a span, on meter m.
func (r *round) timedOp(m *meter, span, req, what string, fn func() error) (ok bool, d time.Duration) {
	d = m.time(func() {
		r.spanned(span, req, func() { ok = r.op(what, fn) })
	})
	return ok, d
}

func (r *round) ioSnapshot() ioCounts {
	if r.cfs == nil {
		return ioCounts{}
	}
	return r.cfs.snapshot()
}

func (r *round) repoOptions() []freqdedup.RepositoryOption {
	var opts []freqdedup.RepositoryOption
	if r.name == "defended-lab" {
		opts = append(opts,
			freqdedup.WithEncryption(freqdedup.EncMinHash),
			freqdedup.WithKeyDeriver(freqdedup.NewLocalDeriver([]byte("bench defended-lab key-manager secret"))),
			freqdedup.WithScramble(r.scrambleSeed()),
			freqdedup.WithUploadObserver(nil))
	}
	if r.cfs != nil {
		opts = append(opts, freqdedup.WithFileSystem(r.cfs))
	}
	return opts
}

// hashWriter checks a restore without holding it: SHA-256 and length.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) check(want snapshot) error {
	if w.n != int64(len(want.Data)) {
		return fmt.Errorf("restored %d bytes, want %d", w.n, len(want.Data))
	}
	if !bytes.Equal(w.h.Sum(nil), want.Sum[:]) {
		return errors.New("restored bytes differ from the input (SHA-256)")
	}
	return nil
}

// dirBytes sums the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// checkStored compares the directory's size with the store's own count.
func checkStored(disk int64, physical uint64) error {
	lo := int64(physical)
	hi := lo + int64(float64(lo)*diskSlackShare) + diskSlackBytes
	if disk < lo || disk > hi {
		return fmt.Errorf("repository directory holds %d bytes, Stats().PhysicalBytes is %d (accepted %d..%d)", disk, physical, lo, hi)
	}
	return nil
}

// run executes the round; a failed operation ends it, and its metrics are
// then not sampled.
func (r *round) run() bool {
	var ok bool
	if r.name == "remote-mix" {
		ok = r.runRemote()
	} else {
		ok = r.runLocal()
	}
	if ok && r.in.Attack != nil {
		ok = r.runAttack()
	}
	if ok && r.tr != nil {
		ok = r.op("stage replay", r.replayStages)
	}
	return ok
}

// create makes the round's repository; nil means the operation failed.
func (r *round) create(opts []freqdedup.RepositoryOption) *freqdedup.Repository {
	var repo *freqdedup.Repository
	r.op("create", func() (err error) {
		repo, err = freqdedup.CreateRepository(r.dir, opts...)
		return err
	})
	return repo
}

// storedSize measures the closed repository directory and checks it
// against the store's own count, taken before the close.
func (r *round) storedSize(physical uint64) bool {
	return r.op("stored size", func() (err error) {
		if r.diskBytes, err = dirBytes(r.dir); err != nil {
			return err
		}
		return checkStored(r.diskBytes, physical)
	})
}

// runLocal drives one tenant through Repository: untimed preparation,
// timed backups, close, cold reopen, restore of the last snapshot.
func (r *round) runLocal() bool {
	ctx := context.Background()
	st := r.in.Streams[0]
	opts := r.repoOptions()

	// Untimed: create the repository and back up the earlier generations.
	prepStart := time.Now()
	repo := r.create(opts)
	if repo == nil {
		return false
	}
	defer func() { // for the error paths; Close is idempotent
		if repo != nil {
			repo.Close()
		}
	}()
	backupOne := func(sn snapshot) error {
		snap, err := repo.Backup(ctx, sn.Name, bytes.NewReader(sn.Data))
		if err != nil {
			return err
		}
		if snap.LogicalBytes != uint64(len(sn.Data)) {
			return fmt.Errorf("Snapshot.LogicalBytes = %d, fed %d", snap.LogicalBytes, len(sn.Data))
		}
		r.logicalBytes += int64(len(sn.Data))
		return nil
	}

	for _, sn := range st.Snapshots[:st.Prep] {
		if !r.op("prepare "+sn.Name, func() error { return backupOne(sn) }) {
			return false
		}
	}
	r.prep = time.Since(prepStart)

	io0 := r.ioSnapshot()
	for _, sn := range st.timed() {
		if ok, _ := r.timedOp(&r.backup, "repo.backup", sn.Name, "backup "+sn.Name, func() error { return backupOne(sn) }); !ok {
			return false
		}
		r.backupBytes += int64(len(sn.Data))
	}
	r.backupIO = r.ioSnapshot().sub(io0)

	physical := repo.Stats().PhysicalBytes
	ok, closeDur := r.timedOp(&r.other, "repo.close", "", "close", repo.Close)
	if !ok || !r.storedSize(physical) {
		return false
	}
	ok, openDur := r.timedOp(&r.other, "repo.open", "", "open", func() (err error) {
		repo, err = freqdedup.OpenRepository(r.dir, opts...)
		return err
	})
	if !ok {
		return false
	}

	last := st.Snapshots[len(st.Snapshots)-1]
	io0 = r.ioSnapshot()
	if ok, _ := r.timedOp(&r.restore, "repo.restore", last.Name, "restore "+last.Name, func() error {
		w := newHashWriter()
		if err := repo.Restore(ctx, last.Name, w); err != nil {
			return err
		}
		return w.check(last)
	}); !ok {
		return false
	}
	r.restoreIO = r.ioSnapshot().sub(io0)
	r.restoreBytes = int64(len(last.Data))
	if !r.op("close after restore", repo.Close) {
		return false
	}

	if r.tr != nil {
		r.layer["repo.open_ms"] = ms(openDur)
		r.layer["repo.close_ms"] = ms(closeDur)
		if r.name == "defended-lab" {
			return r.replayTraceLog(opts, len(st.Snapshots))
		}
	}
	return true
}

// replayTraceLog times what an adversary holding the repository's files
// does first: open it and replay traces.fdt.
func (r *round) replayTraceLog(opts []freqdedup.RepositoryOption, want int) bool {
	var repo *freqdedup.Repository
	var d time.Duration
	if !r.op("trace log replay", func() error {
		info, err := os.Stat(filepath.Join(r.dir, tracelog.LogName))
		if err != nil {
			return err
		}
		r.layer["tracelog.bytes"] = float64(info.Size())
		d = r.spanned("tracelog.replay", "", func() {
			if repo, err = freqdedup.OpenRepository(r.dir, opts...); err != nil {
				return
			}
			if log := repo.TraceLog(); log == nil {
				err = errors.New("reopened repository has no trace log")
			} else if got := len(log.Backups()); got != want {
				err = fmt.Errorf("trace log replayed %d backups, want %d", got, want)
			}
		})
		if repo != nil {
			if cerr := repo.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}) {
		return false
	}
	r.layer["tracelog.replay_ms"] = ms(d)
	return true
}

// serve starts a RepoServer for repo on a loopback port and returns its
// address and a stop function that drains it and waits for Serve to
// return.
func (r *round) serve(repo *freqdedup.Repository, cl *countListener) (addr string, stop func() error, err error) {
	srv, err := freqdedup.NewRepositoryServer(repo, freqdedup.ServerConfig{})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	addr = ln.Addr().String()
	if cl != nil {
		cl.Listener = ln
		ln = cl
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		if r.tr != nil {
			r.missShare(srv.NegotiationLog())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if serr := <-done; err == nil {
			err = serr
		}
		return err
	}
	return addr, stop, nil
}

// missShare reads the negotiation transcript: every backup session left
// a query trace and a miss trace.
func (r *round) missShare(neg *freqdedup.TraceLog) {
	var asked, missed int64
	for _, t := range neg.Backups() {
		if strings.HasSuffix(t.Label, freqdedup.NegotiationMissSuffix) {
			missed += t.Chunks
		} else {
			asked += t.Chunks
		}
	}
	if asked > 0 {
		r.layer["server.miss_share"] = float64(missed) / float64(asked)
	}
}

// tenants runs fn once per tenant, each on its own goroutine and its own
// connection, and waits for all of them.
func (r *round) tenants(addr string, fn func(t int, st stream, cl *freqdedup.RemoteClient) bool) bool {
	oks := make([]bool, len(r.in.Streams))
	var wg sync.WaitGroup
	for t, st := range r.in.Streams {
		wg.Add(1)
		go func(t int, st stream) {
			defer wg.Done()
			var cl *freqdedup.RemoteClient
			if !r.op("dial "+st.Tenant, func() (err error) {
				cl, err = freqdedup.DialServer(addr, freqdedup.RemoteClientConfig{Tenant: st.Tenant})
				return err
			}) {
				return
			}
			defer cl.Close()
			oks[t] = fn(t, st, cl)
		}(t, st)
	}
	wg.Wait()
	for _, ok := range oks {
		if !ok {
			return false
		}
	}
	return true
}

// session runs one counted client call inside a span on the tenant's lane.
func (r *round) session(t int, name, req string, fn func() error) bool {
	id := r.tr.begin(name, req, r.tr.current(), laneTenant+t)
	ok := r.op(name+" "+req, fn)
	r.tr.end(id)
	return ok
}

// runRemote drives the same Repository through NewRepositoryServer on
// loopback: closed-loop tenants back up every generation, the server and
// repository are restarted cold, and each tenant restores its last one.
func (r *round) runRemote() bool {
	ctx := context.Background()
	opts := r.repoOptions()
	var cl *countListener
	if r.tr != nil {
		cl = &countListener{}
	}

	var addr string
	var stop func() error
	prepStart := time.Now()
	repo := r.create(opts)
	if repo == nil {
		return false
	}
	defer func() {
		if repo != nil {
			repo.Close()
		}
	}()
	stopAndClose := func() error {
		if err := stop(); err != nil {
			return err
		}
		return repo.Close()
	}
	if !r.op("serve", func() (err error) {
		addr, stop, err = r.serve(repo, cl)
		return err
	}) {
		return false
	}
	r.prep = time.Since(prepStart)

	io0 := r.ioSnapshot()
	var ok bool
	r.backup.time(func() {
		r.spanned("remote.backup_phase", "", func() {
			ok = r.tenants(addr, func(t int, st stream, c *freqdedup.RemoteClient) bool {
				for _, sn := range st.Snapshots {
					data := sn.Data
					if !r.session(t, "server.backup", st.Tenant+"/"+sn.Name, func() error {
						info, err := c.Backup(ctx, sn.Name, bytes.NewReader(data))
						if err != nil {
							return err
						}
						if info.LogicalBytes != uint64(len(data)) {
							return fmt.Errorf("SnapshotInfo.LogicalBytes = %d, fed %d", info.LogicalBytes, len(data))
						}
						return nil
					}) {
						return false
					}
				}
				return true
			})
		})
	})
	if !ok {
		stop()
		return false
	}
	r.backupIO = r.ioSnapshot().sub(io0)
	for _, st := range r.in.Streams {
		for _, sn := range st.Snapshots {
			r.backupBytes += int64(len(sn.Data))
		}
		r.restoreBytes += int64(len(st.Snapshots[len(st.Snapshots)-1].Data))
	}
	r.logicalBytes = r.backupBytes

	physical := repo.Stats().PhysicalBytes
	ok, closeDur := r.timedOp(&r.other, "repo.close", "", "stop server and close", stopAndClose)
	if !ok || !r.storedSize(physical) {
		return false
	}
	ok, openDur := r.timedOp(&r.other, "repo.open", "", "open and serve", func() (err error) {
		if repo, err = freqdedup.OpenRepository(r.dir, opts...); err != nil {
			return err
		}
		addr, stop, err = r.serve(repo, cl)
		return err
	})
	if !ok {
		return false
	}

	io0 = r.ioSnapshot()
	r.restore.time(func() {
		r.spanned("remote.restore_phase", "", func() {
			ok = r.tenants(addr, func(t int, st stream, c *freqdedup.RemoteClient) bool {
				last := st.Snapshots[len(st.Snapshots)-1]
				return r.session(t, "server.restore", st.Tenant+"/"+last.Name, func() error {
					w := newHashWriter()
					if err := c.Restore(ctx, last.Name, w); err != nil {
						return err
					}
					return w.check(last)
				})
			})
		})
	})
	if !ok {
		stop()
		return false
	}
	r.restoreIO = r.ioSnapshot().sub(io0)
	if !r.op("stop server and close after restore", stopAndClose) {
		return false
	}

	if r.tr != nil {
		r.layer["repo.open_ms"] = ms(openDur)
		r.layer["repo.close_ms"] = ms(closeDur)
		net := cl.snapshot()
		r.layer["wire.rx_bytes"] = float64(net.ReadBytes)
		r.layer["wire.tx_bytes"] = float64(net.WriteBytes)
		r.layer["wire.reads"] = float64(net.Reads)
		r.layer["wire.writes"] = float64(net.Writes)
	}
	return true
}

// runAttack is defended-lab's adversary: the trace-only dataset's last
// backup encrypted under MLE and under MinHash+scrambling, attacked with
// the previous backup as auxiliary information and 2 % of the target's
// chunks leaked. The paper's ordering is the output check.
func (r *round) runAttack() bool {
	n := len(r.in.Attack.Backups)
	aux, target := r.in.Attack.Backups[n-2], r.in.Attack.Backups[n-1]
	rates := make(map[defense.Scheme]float64)
	var encrypt time.Duration
	pairs := 0
	for _, scheme := range []defense.Scheme{defense.SchemeMLE, defense.SchemeCombined} {
		label := strings.ToLower(scheme.String())
		var run time.Duration
		ok, d := r.timedOp(&r.other, "attack", label, "attack "+label, func() error {
			var enc defense.Encrypted
			var err error
			encrypt += r.spanned("defense.encrypt", label, func() {
				enc, err = defense.Encrypt(target, scheme, r.scrambleSeed())
			})
			if err != nil {
				return err
			}
			cfg := attack.Config{U: attackU, V: attackV, W: attackW, Mode: attack.KnownPlaintext,
				Leaked: attack.SampleLeaked(enc.Backup, enc.Truth, attackLeakRate, r.seed)}
			var res attack.Result
			run = r.spanned("attack.run", label, func() {
				res, err = attack.NewLocality(cfg).Run(attack.BackupSource(enc.Backup), attack.BackupSource(aux), attack.Params{})
			})
			if err != nil {
				return err
			}
			rates[scheme] = res.InferenceRate(enc.Truth)
			pairs += len(res.Pairs)
			return nil
		})
		if !ok {
			return false
		}
		r.attackWall += d
		r.attackChunks += int64(len(target.Chunks) + len(aux.Chunks))
		if r.tr != nil {
			r.layer["attack.run_s."+label] = run.Seconds()
			r.layer["attack.inferred_pct."+label] = 100 * rates[scheme]
		}
	}
	if r.tr != nil {
		r.layer["defense.encrypt_ms"] = ms(encrypt)
		r.layer["attack.pairs"] = float64(pairs)
	}
	return r.op("paper ordering", func() error {
		mle, combined := rates[defense.SchemeMLE], rates[defense.SchemeCombined]
		if combined >= mle || mle <= 2*attackLeakRate {
			return fmt.Errorf("inference rate MLE %.4f, combined %.4f, leaked %.2f: want combined < MLE and MLE > 2x leaked", mle, combined, attackLeakRate)
		}
		return nil
	})
}
