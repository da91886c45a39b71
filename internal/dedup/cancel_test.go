package dedup

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// waitForBufs waits until the buffer pool's outstanding count returns to
// want, failing the test if it does not settle: a cancelled pipeline's
// producer may still be releasing its final in-flight chunk, and its
// lookahead, for a moment after the consumer returned.
func waitForBufs(t *testing.T, want bufpool.Count) {
	t.Helper()
	if got := bufpool.Settle(want, 5*time.Second); got != want {
		t.Fatalf("%+v pooled buffers outstanding, want %+v (leaked by cancellation)", got, want)
	}
}

// ctxCancellingReader cancels the context once cancelAt bytes have been
// delivered, then keeps delivering, so cancellation lands while the
// pipeline is genuinely mid-stream with chunks in flight.
type ctxCancellingReader struct {
	data     []byte
	off      int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *ctxCancellingReader) Read(p []byte) (int, error) {
	if c.off >= c.cancelAt && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	if c.off >= len(c.data) {
		return 0, io.EOF
	}
	n := 64 << 10
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data)-c.off {
		n = len(c.data) - c.off
	}
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

// cancelConfig is one pipeline shape. predict gives the client a
// parent it predicts cuts from (see newCancelClient).
type cancelConfig struct {
	name    string
	cfg     Config
	predict bool
}

// cancelConfigs are the pipeline shapes cancellation is tested on: no
// segment stage (convergent encryption, at two worker counts, and with a
// parent predicting the cuts), scrambling alone, and the paper's combined
// defence.
var cancelConfigs = []cancelConfig{
	{name: "streaming-1w", cfg: Config{Workers: 1}},
	{name: "streaming-4w", cfg: Config{Workers: 4}},
	{name: "predicted-4w", cfg: Config{Workers: 4}, predict: true},
	{name: "scramble-4w", cfg: Config{Workers: 4, Scramble: true, ScrambleSeed: 5}},
	{name: "minhash-scramble-4w", cfg: Config{
		Workers:      4,
		Encryption:   EncMinHash,
		Deriver:      mle.NewLocalDeriver([]byte("cancel")),
		Scramble:     true,
		ScrambleSeed: 5,
	}},
}

// newCancelClient returns a client with configuration cfg on a fresh
// store. For a predicted shape it first backs up a parent, stream with a
// few regions overwritten, under the shape's own configuration into the
// same store, and gives the client its recipe with predictions, so that
// backing up stream verifies runs of predicted cuts. A cfg whose
// encryption is not the shape's (the encrypt-error rows' server-aided
// keys) gets no table: the convergent parent kept no sums.
func newCancelClient(t *testing.T, tc cancelConfig, cfg Config, stream []byte) *Client {
	t.Helper()
	store := NewStore(0)
	client, err := NewClient(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.predict {
		return client
	}
	parent := append([]byte(nil), stream...)
	rng := rand.New(rand.NewSource(int64(len(stream))))
	for i := 0; i < 8 && len(parent) > 4096; i++ {
		at := rng.Intn(len(parent) - 4096)
		rng.Read(parent[at : at+4096])
	}
	pc, err := NewClient(store, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := pc.Backup(bytes.NewReader(parent))
	if err != nil {
		t.Fatal(err)
	}
	client.SetParent(recipe, pc.Sums(), true)
	return client
}

// TestBackupCancelDrainsPooledBuffers cancels mid-Backup with and without
// the segment stage, at several worker counts, asserting a prompt
// ctx.Err() return and that every pooled chunk buffer comes back to the
// pool — the gathered chunks, the open segment's, and the closed ones not
// yet uploaded. Run under -race: the producer, the worker pool's
// fingerprint and encrypt batches, and the cancellation all overlap.
func TestBackupCancelDrainsPooledBuffers(t *testing.T) {
	data := randData(41, 16<<20)
	for _, tc := range cancelConfigs {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, baseline := runtime.NumGoroutine(), bufpool.Outstanding()
			client := newCancelClient(t, tc, tc.cfg, data)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &ctxCancellingReader{data: data, cancelAt: 8 << 20, cancel: cancel}
			if _, err := client.BackupContext(ctx, src); !errors.Is(err, context.Canceled) {
				t.Fatalf("BackupContext err = %v, want context.Canceled", err)
			}
			// The cancellation fires inside the producer's read, which may
			// go on to cut a run of predicted chunks before the producer
			// sees it: the count of buffers can pass the baseline on the
			// way. Only once the producer is gone are they all back.
			waitForGoroutines(t, goroutines)
			waitForBufs(t, baseline)
		})
	}
}

// waitForGoroutines polls until the goroutine count is back at or below
// want: Backup joins its worker pool before returning, and its producer
// and drain goroutines exit once the reader has nothing more to give.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d (a backup goroutine outlived Backup)", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingDeriver derives keys until it has served n, then fails every
// call — an encryption-stage failure that lands mid-stream.
func failingDeriver(n int64, err error) mle.KeyDeriver {
	var calls atomic.Int64
	inner := mle.NewLocalDeriver([]byte("teardown"))
	return mle.KeyDeriverFunc(func(fp fphash.Fingerprint) (mle.Key, error) {
		if calls.Add(1) > n {
			return mle.Key{}, err
		}
		return inner.DeriveKey(fp)
	})
}

// TestBackupTeardown: whether a backup succeeds, fails in its encrypt
// stage or is cancelled, nothing of it survives the return — the worker
// pool is joined, the producer and drain goroutines exit, and every
// pooled chunk buffer is back. Every cancelConfigs shape is covered; the
// encrypt failure is a key deriver that gives out mid-stream (per chunk
// on the pool for server-aided rows, per segment on the consumer for the
// MinHash row).
func TestBackupTeardown(t *testing.T) {
	data := randData(44, 6<<20)
	boom := errors.New("deriver down")
	for _, tc := range cancelConfigs {
		for _, outcome := range []string{"success", "encrypt-error", "cancel"} {
			t.Run(tc.name+"/"+outcome, func(t *testing.T) {
				goroutines, bufs := runtime.NumGoroutine(), bufpool.Outstanding()
				cfg := tc.cfg
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var src io.Reader = bytes.NewReader(data)
				var want error
				switch outcome {
				case "encrypt-error":
					// A few hundred chunk keys, or two segment keys.
					served := int64(300)
					if cfg.Encryption == EncMinHash {
						served = 2
					} else {
						cfg.Encryption = EncServerAided
					}
					cfg.Deriver = failingDeriver(served, boom)
					want = boom
				case "cancel":
					src = &ctxCancellingReader{data: data, cancelAt: 3 << 20, cancel: cancel}
					want = context.Canceled
				}
				client := newCancelClient(t, tc, cfg, data)
				if _, err := client.BackupContext(ctx, src); !errors.Is(err, want) {
					t.Fatalf("BackupContext err = %v, want %v", err, want)
				}
				if tc.predict && outcome == "success" && client.predicted.Load() == 0 {
					t.Fatal("no cut was predicted from the parent")
				}
				waitForGoroutines(t, goroutines)
				waitForBufs(t, bufs)
			})
		}
	}
}

// stalledReader delivers data, then returns (0, nil) forever.
type stalledReader struct{ data []byte }

func (s *stalledReader) Read(p []byte) (int, error) {
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestBackupNoProgressReader: a source that stops making progress without
// an error fails the backup with io.ErrNoProgress, reported as a chunking
// error, instead of spinning the producer forever; the pipeline tears down
// as on any other error.
func TestBackupNoProgressReader(t *testing.T) {
	for _, tc := range cancelConfigs {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, bufs := runtime.NumGoroutine(), bufpool.Outstanding()
			data := randData(45, 1<<20)
			client := newCancelClient(t, tc, tc.cfg, data)
			_, err := client.BackupContext(context.Background(), &stalledReader{data: data})
			if !errors.Is(err, io.ErrNoProgress) || !strings.HasPrefix(err.Error(), "dedup: chunking: ") {
				t.Fatalf("BackupContext err = %v, want io.ErrNoProgress wrapped as a chunking error", err)
			}
			waitForGoroutines(t, goroutines)
			waitForBufs(t, bufs)
		})
	}
}

// blockingReader parks Read until released, simulating a stalled source
// (a dead NFS mount, a wedged pipe).
type blockingReader struct {
	entered sync.Once
	parked  chan struct{} // closed once the first Read is parked
	release chan struct{}
}

func (b *blockingReader) Read(p []byte) (int, error) {
	b.entered.Do(func() { close(b.parked) })
	<-b.release
	return 0, io.EOF
}

// TestBackupCancelWhileReaderBlocked: cancellation must not wait for the
// stalled read in any configuration — the consumer returns promptly while
// the producer is still parked, and once the reader finally returns, the
// producer drains without leaking its buffers.
func TestBackupCancelWhileReaderBlocked(t *testing.T) {
	for _, tc := range cancelConfigs {
		t.Run(tc.name, func(t *testing.T) {
			baseline := bufpool.Outstanding()
			// The reader delivers nothing, so no cut is predicted.
			client := newCancelClient(t, tc, tc.cfg, nil)
			src := &blockingReader{parked: make(chan struct{}), release: make(chan struct{})}
			// Release the reader on every exit, so a Backup that ignores the
			// cancellation fails the test instead of wedging it.
			var once sync.Once
			release := func() { once.Do(func() { close(src.release) }) }
			defer release()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := client.BackupContext(ctx, src)
				errc <- err
			}()
			select {
			case <-src.parked:
			case err := <-errc:
				t.Fatalf("BackupContext returned %v before reading", err)
			}
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("BackupContext err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				release()
				t.Fatalf("cancelled Backup still blocked on the stalled reader after 2s (then returned %v)", <-errc)
			}
			release() // let the parked producer exit and drain
			waitForBufs(t, baseline)
		})
	}
}

// TestRestoreCancelDrainsPooledBuffers cancels mid-Restore and asserts
// ctx.Err() plus a fully drained restore-buffer pool. Run under -race.
func TestRestoreCancelDrainsPooledBuffers(t *testing.T) {
	data := randData(42, 4<<20)
	store := NewStoreWithShards(64<<10, DefaultShards)
	client, err := NewClient(store, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	baseline := bufpool.Outstanding()
	for _, cancelAt := range []int{0, 64 << 10, 1 << 20} {
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelAtWriter{n: cancelAt, cancel: cancel}
		err := client.RestoreContext(ctx, recipe, w)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: RestoreContext err = %v, want context.Canceled", cancelAt, err)
		}
		if got := bufpool.Outstanding(); got != baseline {
			t.Fatalf("cancelAt=%d: %+v pooled buffers outstanding, want %+v", cancelAt, got, baseline)
		}
	}
	// A clean restore still works afterwards.
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after cancellations mismatched")
	}
	if got := bufpool.Outstanding(); got != baseline {
		t.Fatalf("%+v pooled buffers outstanding after clean restore, want %+v", got, baseline)
	}
}

// cancelAtWriter cancels the context once n bytes have been written (n=0
// cancels on the first write).
type cancelAtWriter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelAtWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n <= 0 && w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	return len(p), nil
}

// TestCancelledBeforeStart: an already-cancelled context fails Backup,
// Restore, and GC immediately, before any work or side effect.
func TestCancelledBeforeStart(t *testing.T) {
	store := NewStore(0)
	client, err := NewClient(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.BackupContext(ctx, bytes.NewReader(randData(43, 1<<20))); !errors.Is(err, context.Canceled) {
		t.Fatalf("BackupContext err = %v", err)
	}
	if got := store.Stats().LogicalChunks; got != 0 {
		t.Fatalf("cancelled-before-start backup stored %d chunks", got)
	}
	recipe, err := client.Backup(bytes.NewReader(randData(43, 256<<10)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := client.RestoreContext(ctx, recipe, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("RestoreContext err = %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled-before-start restore wrote %d bytes", out.Len())
	}
	if _, err := store.GCContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("GCContext err = %v", err)
	}
}

// TestGCCancelKeepsStoreConsistent: a GC cancelled between shards leaves
// a consistent store (partial sweeps are atomic per shard) and a re-run
// finishes the job.
func TestGCCancelKeepsStoreConsistent(t *testing.T) {
	store, client, _, r2 := setupTwoBackups(t)
	if err := store.DeleteBackup("b1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.GCContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("GCContext err = %v", err)
	}
	// Finish the sweep and check the survivor.
	if _, err := store.GC(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := client.Restore(r2, &out); err != nil {
		t.Fatalf("surviving backup broken after cancelled+completed GC: %v", err)
	}
}
