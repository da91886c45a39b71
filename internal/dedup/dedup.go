package dedup

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"freqdedup/internal/chunker"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

// Encryption selects the client-side encryption pipeline.
type Encryption int

const (
	// EncConvergent encrypts each chunk under its content hash.
	EncConvergent Encryption = iota + 1
	// EncServerAided derives per-chunk keys from a key manager
	// (Config.Deriver).
	EncServerAided
	// EncMinHash derives one key per segment from the segment's minimum
	// fingerprint via Config.Deriver (Algorithm 4).
	EncMinHash
)

// Config configures a Client.
type Config struct {
	// Chunking parameters (chunker.DefaultParams if zero). The Algorithm
	// field selects the boundary function: AlgoRabin (the default) or the
	// faster AlgoGear. The two produce different cut points — a store's
	// dedup ratio is only preserved against backups chunked the same way.
	Chunking chunker.Params
	// ChunkWorkers enables multi-stream chunking: with a value above 1 and
	// AlgoGear, Backup splits the input across that many chunking workers
	// with deterministic cut-point stitching — the chunk sequence is
	// bit-identical to serial gear chunking at any worker count. 0 and 1
	// chunk serially. Requires Chunking.Min >= chunker.GearWindow and is
	// rejected for AlgoRabin (its rolling hash carries unbounded history,
	// so segments cannot be scanned independently).
	ChunkWorkers int
	// Encryption selects the MLE scheme (EncConvergent if zero).
	Encryption Encryption
	// Deriver supplies keys for EncServerAided and EncMinHash. It must be
	// safe for concurrent use when Workers != 1 (the key-manager client
	// and mle.NewLocalDeriver both are).
	Deriver mle.KeyDeriver
	// Segments configures segmentation for EncMinHash and Scramble
	// (segment.DefaultParams if zero).
	Segments segment.Params
	// Scramble enables per-segment upload-order scrambling (Algorithm 5).
	// Restores are unaffected: the recipe preserves original order.
	Scramble bool
	// ScrambleSeed seeds the scrambling RNG. The zero value selects a
	// fresh cryptographically random seed per client, so scrambled upload
	// order is unpredictable run to run (the defense's intent). A nonzero
	// seed makes the upload order a reproducible function of input,
	// config, and seed — for tests and experiments that need bit-for-bit
	// deterministic store layouts.
	ScrambleSeed int64
	// Workers is the number of encrypt+fingerprint workers Backup fans
	// out to (the MLE hot path) and the number of container read+decrypt
	// workers Restore fans out to. 0 selects GOMAXPROCS; 1 runs Backup's
	// stages inline. Recipes, store contents, and restored bytes are
	// identical for every worker count: parallelism changes wall-clock
	// time only.
	Workers int
	// DegradedRestore turns unrecoverable chunks into zero-filled holes
	// instead of failing the restore: when a chunk is missing or its
	// container is corrupt, Restore writes zeros for the chunk's range,
	// keeps going, and returns a *DegradedError listing every lost range —
	// so after a partial media failure, everything outside the reported
	// ranges is still byte-identical to the original. Other errors (backend
	// I/O failures) still abort. Off by default: a restore either returns
	// the exact original bytes or an error.
	DegradedRestore bool
	// Observer, when non-nil, taps the post-encryption upload stream:
	// it receives every uploaded chunk's ciphertext fingerprint and
	// ciphertext size in upload (wire) order — exactly the Section 3.3
	// adversary view, nothing more (no plaintext, no keys, no recipe
	// order for scrambled uploads). An Observer error aborts the backup.
	Observer UploadObserver
}

// UploadObserver observes a client's post-encryption upload stream — the
// adversary tap of the paper's threat model (Section 3.3), and the feed
// of the repository's durable .fdt trace log. ObserveUpload is called
// from the backup pipeline's consumer goroutine once per upload window,
// after the store acknowledged the window, with the window's chunks in
// upload order; refs is only borrowed for the duration of the call.
// Implementations need not be safe for concurrent use by multiple
// backups, but must tolerate being called from a different goroutine
// than the one that started the backup.
type UploadObserver interface {
	ObserveUpload(refs []trace.ChunkRef) error
}

// Client is the client side of Figure 2: chunk, encrypt, upload. A Client
// is not safe for concurrent use (its scrambling RNG is stateful); run one
// Client per goroutine against a shared Store instead — that is the
// multi-client architecture the store's sharding is built for.
type Client struct {
	cfg     Config
	store   *Store
	rng     *rand.Rand
	obsRefs []trace.ChunkRef // reused observation window (tap enabled only)

	// Test hooks of the restore window (restore_test.go): windowBudget,
	// when positive, replaces the budget derived from store geometry, and
	// windowPeak is the last restore's high-water mark of retained bytes.
	windowBudget int64
	windowPeak   int64
}

// NewClient returns a client uploading to store.
func NewClient(store *Store, cfg Config) (*Client, error) {
	if store == nil {
		return nil, errors.New("dedup: nil store")
	}
	if cfg.Chunking == (chunker.Params{}) {
		cfg.Chunking = chunker.DefaultParams()
	}
	if err := cfg.Chunking.Validate(); err != nil {
		return nil, err
	}
	if cfg.Encryption == 0 {
		cfg.Encryption = EncConvergent
	}
	if cfg.Segments == (segment.Params{}) {
		cfg.Segments = segment.DefaultParams()
	}
	if err := cfg.Segments.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Encryption {
	case EncConvergent:
	case EncServerAided, EncMinHash:
		if cfg.Deriver == nil {
			return nil, mle.ErrNoKeyDeriver
		}
	default:
		return nil, fmt.Errorf("dedup: unknown encryption %d", cfg.Encryption)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("dedup: negative worker count %d", cfg.Workers)
	}
	if cfg.ChunkWorkers < 0 {
		return nil, fmt.Errorf("dedup: negative chunk worker count %d", cfg.ChunkWorkers)
	}
	if cfg.ChunkWorkers > 1 {
		if cfg.Chunking.Algorithm != chunker.AlgoGear {
			return nil, errors.New("dedup: multi-stream chunking requires the gear algorithm (chunker.AlgoGear)")
		}
		if cfg.Chunking.Min < chunker.GearWindow {
			return nil, fmt.Errorf("dedup: multi-stream chunking needs Chunking.Min >= %d, got %d",
				chunker.GearWindow, cfg.Chunking.Min)
		}
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	seed := cfg.ScrambleSeed
	if seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("dedup: seed scrambling rng: %w", err)
		}
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	return &Client{cfg: cfg, store: store, rng: rand.New(rand.NewSource(seed))}, nil
}

// encJob is one chunk's slot in an encrypt window: the chunk to encrypt
// and, for EncMinHash, the precomputed segment key.
type encJob struct {
	chunk  chunker.Chunk
	segKey mle.Key
}

// uploadResult is a worker's output for one job: the ciphertext chunk,
// its fingerprint, and the key that must go into the recipe.
type uploadResult struct {
	ct  []byte
	cfp fphash.Fingerprint
	key mle.Key
}

// uploadWindowChunks bounds how many chunks Backup encrypts and uploads at
// a time: ~8 MiB of ciphertext at the default 8 KiB average chunk size,
// and still hundreds of jobs per window so the worker fan-out stays
// saturated.
const uploadWindowChunks = 1024

// chunkQueueDepth is the capacity of the streaming producer's chunk
// channel: enough lookahead that the chunker keeps running while a window
// is being encrypted, small enough that resident plaintext stays bounded
// (depth + window chunks).
const chunkQueueDepth = 256

// Backup chunks, encrypts, and uploads the stream, returning the recipe
// needed to restore it. The recipe must be sealed with the user's key
// before being stored anywhere untrusted (mle.Recipe.Seal).
//
// Backup is a streaming pipeline. A producer goroutine runs the
// content-defined chunker (deferring plaintext SHA-256 out of the serial
// path) and feeds a bounded channel; the consumer gathers fixed-size
// windows and fans each one out to Config.Workers goroutines that derive
// keys, encrypt, and fingerprint ciphertexts, then uploads the window with
// one PutBatch and releases the plaintext buffers back to the chunker
// pool. At most chunkQueueDepth + uploadWindowChunks plaintext chunks are
// resident regardless of stream length.
//
// Scrambling and MinHash encryption need whole-stream segmentation (the
// segment divisor depends on the stream's mean chunk size), so those
// configurations buffer the chunk list and build the upload plan up front,
// exactly like the pre-streaming engine — results are bit-for-bit
// identical to it in every mode, and independent of the worker and shard
// counts.
//
// If Backup returns an error, the chunking goroutine may still be
// completing one final in-progress read of r before it shuts down. Do not
// reuse, reset, or close a non-thread-safe r immediately after a failed
// Backup; readers that tolerate concurrent use (*os.File) are unaffected.
func (c *Client) Backup(r io.Reader) (*mle.Recipe, error) {
	return c.BackupContext(context.Background(), r)
}

// BackupContext is Backup with cancellation: when ctx is cancelled the
// pipeline stops promptly — the consumer returns ctx.Err() without waiting
// for an in-progress read of r, the encrypt fan-out aborts between chunks,
// and every pooled chunk buffer still in flight is handed back to the pool
// (the same drain contract as any other mid-backup error). Chunks uploaded
// before the cancellation remain in the store, where they deduplicate a
// retried backup or are reclaimed by the next GC.
func (c *Client) BackupContext(ctx context.Context, r io.Reader) (*mle.Recipe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := c.cfg.Chunking
	params.DeferFingerprint = true
	var (
		cdc chunker.Chunker
		err error
	)
	if c.cfg.ChunkWorkers > 1 && params.Algorithm == chunker.AlgoGear {
		cdc, err = chunker.NewMultiGear(r, params, c.cfg.ChunkWorkers)
	} else {
		cdc, err = chunker.New(r, params)
	}
	if err != nil {
		return nil, err
	}
	if c.cfg.Scramble || c.cfg.Encryption == EncMinHash {
		return c.backupPlanned(ctx, cdc)
	}
	return c.backupStreaming(ctx, cdc)
}

// closeChunker winds down chunkers that own pipeline goroutines and
// pooled buffers (the multi-stream gear chunker); serial chunkers have
// nothing to release. It must not race the chunker's Next.
func closeChunker(c chunker.Chunker) {
	if mc, ok := c.(interface{ Close() error }); ok {
		_ = mc.Close()
	}
}

// chunkMsg is one producer-to-consumer handoff: a chunk or a chunking
// error.
type chunkMsg struct {
	chunk chunker.Chunk
	err   error
}

// backupStreaming is the bounded streaming path for configurations whose
// upload order is the chunk order (no scrambling, no segment keys): chunks
// flow from the producer goroutine through window-sized encrypt fan-outs
// straight into the store, and never accumulate beyond the pipeline bound.
func (c *Client) backupStreaming(ctx context.Context, cdc chunker.Chunker) (*mle.Recipe, error) {
	chunks := make(chan chunkMsg, chunkQueueDepth)
	done := make(chan struct{})
	window := make([]encJob, 0, uploadWindowChunks)
	// On any return, stop the producer and hand every chunk still in
	// flight — buffered in the channel or gathered in an unflushed window —
	// back to the chunker pool, so repeated failing backups stay as
	// allocation-lean as successful ones. The channel is drained on a
	// goroutine: the producer may be blocked in a stalled Read, and an
	// error return must not wait for it. On the success path the channel
	// is already closed and drained and the window is empty, so this is a
	// no-op.
	defer func() {
		close(done)
		go func() {
			for msg := range chunks {
				msg.chunk.Release()
			}
		}()
		for i := range window {
			window[i].chunk.Release()
		}
	}()
	go func() {
		defer close(chunks)
		// The producer is the chunker's sole consumer, so it owns the
		// teardown: for a multi-stream chunker this reclaims the pipeline's
		// goroutines and pooled segment buffers. An error return of Backup
		// does not wait for it (see Backup's doc on in-flight reads).
		defer closeChunker(cdc)
		for {
			// Stop before touching the reader again once the consumer has
			// bailed: the drain goroutine keeps the send case below ready,
			// so the select alone would let the producer keep issuing
			// reads on a reader the caller owns again after the error
			// return. At most the one in-flight cdc.Next — which may span
			// several reads while filling its lookahead — escapes (see
			// Backup's doc).
			select {
			case <-done:
				return
			default:
			}
			ch, err := cdc.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			var msg chunkMsg
			if err != nil {
				msg = chunkMsg{err: fmt.Errorf("dedup: chunking: %w", err)}
			} else {
				msg = chunkMsg{chunk: ch}
			}
			select {
			case chunks <- msg:
			case <-done:
				// The consumer bailed; reclaim the undelivered chunk
				// (Release on the zero chunk of an error message is a
				// no-op).
				ch.Release()
				return
			}
			if err != nil {
				return
			}
		}
	}()

	recipe := &mle.Recipe{}
	results := make([]uploadResult, uploadWindowChunks)
	batch := make([]PutChunk, 0, uploadWindowChunks)
	flush := func() error {
		if len(window) == 0 {
			return nil
		}
		res := results[:len(window)]
		if err := c.runEncryptStage(ctx, window, res); err != nil {
			return err
		}
		batch = batch[:0]
		for _, r := range res {
			batch = append(batch, PutChunk{FP: r.cfp, Data: r.ct})
			recipe.Entries = append(recipe.Entries, mle.RecipeEntry{
				Fingerprint: r.cfp,
				Key:         r.key,
				Size:        uint32(len(r.ct)),
			})
		}
		// Ownership transfer: the ciphertexts were freshly allocated by the
		// encrypt stage and are never touched again, so the store may keep
		// them without its defensive copy.
		if _, err := c.store.PutBatchOwned(batch); err != nil {
			return fmt.Errorf("dedup: upload: %w", err)
		}
		if err := c.observeWindow(res); err != nil {
			return err
		}
		for i := range window {
			window[i].chunk.Release()
		}
		window = window[:0]
		return nil
	}
	// Receive with a cancellation arm: when ctx fires the consumer must
	// return promptly even if the producer is parked in a stalled Read and
	// will never send again. The deferred cleanup stops the producer and
	// drains the channel.
	for {
		var msg chunkMsg
		var ok bool
		select {
		case msg, ok = <-chunks:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !ok {
			break
		}
		if msg.err != nil {
			return nil, msg.err
		}
		window = append(window, encJob{chunk: msg.chunk})
		if len(window) == uploadWindowChunks {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return recipe, nil
}

// backupPlanned is the whole-stream planning path for scrambling and
// MinHash encryption: drain the chunker, fingerprint the plaintext chunks
// with the worker pool, segment, fix the upload plan (consuming the
// scrambling RNG on this goroutine so the plan is a deterministic function
// of input, config, and seed), then encrypt and upload in bounded windows
// of the plan.
func (c *Client) backupPlanned(ctx context.Context, cdc chunker.Chunker) (*mle.Recipe, error) {
	var chunks []chunker.Chunk
	// Wind the chunker down on every exit. After a complete drain this is
	// synchronous (the chunker has already stopped); on an early error the
	// teardown runs on a goroutine, because a multi-stream chunker's Close
	// waits out an in-flight read of r that an error return must not wait
	// for (see Backup's doc).
	drained := false
	defer func() {
		if drained {
			closeChunker(cdc)
		} else {
			go closeChunker(cdc)
		}
	}()
	// On any error return — including cancellation mid-drain — hand back
	// every chunk the upload loop has not yet released (released chunks
	// are marked by a nil Data, for which Release is a no-op): the planned
	// path holds the whole stream's chunks, so a failed backup would
	// otherwise abandon all of them to the GC. On the success path
	// everything is already released.
	defer func() {
		for i := range chunks {
			chunks[i].Release()
		}
	}()
	// Drain the chunker serially (the plan needs the whole stream),
	// checking for cancellation between chunks.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch, err := cdc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dedup: chunking: %w", err)
		}
		chunks = append(chunks, ch)
	}
	drained = true
	if len(chunks) == 0 {
		return &mle.Recipe{}, nil
	}

	// Plaintext fingerprints were deferred out of the chunker; compute
	// them with the worker fan-out (segmentation and MinHash need them).
	if err := c.parallelFor(ctx, len(chunks), func(i int) error {
		chunks[i].Fingerprint = fphash.FromBytes(chunks[i].Data)
		return nil
	}); err != nil {
		return nil, err
	}

	// Recipe entries are in original chunk order; uploads may be
	// scrambled.
	recipe := &mle.Recipe{Entries: make([]mle.RecipeEntry, len(chunks))}

	refs := make([]trace.ChunkRef, len(chunks))
	for i, ch := range chunks {
		refs[i] = trace.ChunkRef{FP: ch.Fingerprint, Size: uint32(ch.Size())}
	}
	segs, err := segment.Split(refs, c.cfg.Segments)
	if err != nil {
		return nil, err
	}

	// Build the upload plan: per-segment keys (MinHash) and the exact
	// chunk order the store will see.
	type planEntry struct {
		chunkIdx int
		segKey   mle.Key
	}
	plan := make([]planEntry, 0, len(chunks))
	for _, s := range segs {
		var segKey mle.Key
		if c.cfg.Encryption == EncMinHash {
			fps := make([]fphash.Fingerprint, 0, s.Len())
			for _, ref := range refs[s.Start:s.End] {
				fps = append(fps, ref.FP)
			}
			segKey, err = mle.NewMinHash(c.cfg.Deriver).SegmentKey(fps)
			if err != nil {
				return nil, err
			}
		}

		order := make([]int, s.Len())
		for i := range order {
			order[i] = s.Start + i
		}
		if c.cfg.Scramble {
			order = scrambleOrder(order, c.rng)
		}
		for _, idx := range order {
			plan = append(plan, planEntry{chunkIdx: idx, segKey: segKey})
		}
	}

	// Encrypt and upload in bounded windows of the plan, so at most one
	// window of ciphertext is resident alongside the plaintext chunks
	// (CTR is length-preserving; an unbounded batch would double peak
	// memory). Windows run in plan order and each PutBatch preserves
	// batch order within a shard, so the store sees exactly the serial
	// sequence regardless of window boundaries.
	window := make([]encJob, 0, uploadWindowChunks)
	results := make([]uploadResult, uploadWindowChunks)
	batch := make([]PutChunk, 0, uploadWindowChunks)
	for lo := 0; lo < len(plan); lo += uploadWindowChunks {
		hi := lo + uploadWindowChunks
		if hi > len(plan) {
			hi = len(plan)
		}
		window = window[:0]
		for _, pe := range plan[lo:hi] {
			window = append(window, encJob{chunk: chunks[pe.chunkIdx], segKey: pe.segKey})
		}
		res := results[:len(window)]
		if err := c.runEncryptStage(ctx, window, res); err != nil {
			return nil, err
		}
		batch = batch[:0]
		for p, r := range res {
			batch = append(batch, PutChunk{FP: r.cfp, Data: r.ct})
			recipe.Entries[plan[lo+p].chunkIdx] = mle.RecipeEntry{
				Fingerprint: r.cfp,
				Key:         r.key,
				Size:        uint32(len(r.ct)),
			}
		}
		if _, err := c.store.PutBatchOwned(batch); err != nil {
			return nil, fmt.Errorf("dedup: upload: %w", err)
		}
		if err := c.observeWindow(res); err != nil {
			return nil, err
		}
		// Each chunk appears in exactly one plan slot, so this window's
		// plaintext buffers are dead once encrypted and uploaded. Release
		// through the chunks slice and nil the Data there so the deferred
		// error-path cleanup never double-releases.
		for _, pe := range plan[lo:hi] {
			chunks[pe.chunkIdx].Release()
			chunks[pe.chunkIdx].Data = nil
		}
	}
	return recipe, nil
}

// parallelFor runs fn(0..n-1) on min(Config.Workers, n) goroutines pulling
// indexes from a shared atomic counter. The first error stops the fan-out
// and is returned; a cancelled ctx stops it between items and returns
// ctx.Err(). With one worker (or one item) it runs inline.
func (c *Client) parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	workers := c.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				if err := ctx.Err(); err != nil {
					record(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// observeWindow feeds one acknowledged upload window to the configured
// observer: ciphertext fingerprints and ciphertext sizes in upload order.
// The scratch slice is reused across windows; the observer only borrows
// it. A nil observer costs one branch.
func (c *Client) observeWindow(res []uploadResult) error {
	if c.cfg.Observer == nil {
		return nil
	}
	if cap(c.obsRefs) < len(res) {
		c.obsRefs = make([]trace.ChunkRef, len(res))
	}
	refs := c.obsRefs[:len(res)]
	for i, r := range res {
		refs[i] = trace.ChunkRef{FP: r.cfp, Size: uint32(len(r.ct))}
	}
	if err := c.cfg.Observer.ObserveUpload(refs); err != nil {
		return fmt.Errorf("dedup: upload observer: %w", err)
	}
	return nil
}

// runEncryptStage executes the fan-out stage of the backup pipeline:
// Workers goroutines pull jobs from the window, derive the chunk key,
// encrypt, and fingerprint the ciphertext. Results land at their window
// position, so the output order is independent of goroutine scheduling.
func (c *Client) runEncryptStage(ctx context.Context, jobs []encJob, results []uploadResult) error {
	return c.parallelFor(ctx, len(jobs), func(i int) error {
		return c.encryptOne(jobs[i], &results[i])
	})
}

// encryptOne processes one job: key derivation, deterministic encryption,
// and ciphertext fingerprinting for one chunk. Plaintext fingerprinting
// was deferred out of the chunker, so modes that need it (server-aided key
// derivation) compute it here, inside the worker fan-out; convergent
// encryption never needs it at all.
func (c *Client) encryptOne(job encJob, res *uploadResult) error {
	ch := job.chunk
	var key mle.Key
	switch c.cfg.Encryption {
	case EncConvergent:
		key = mle.ConvergentKey(ch.Data)
	case EncServerAided:
		fp := ch.Fingerprint
		if fp.IsZero() {
			fp = fphash.FromBytes(ch.Data)
		}
		var err error
		key, err = c.cfg.Deriver.DeriveKey(fp)
		if err != nil {
			return fmt.Errorf("dedup: derive key: %w", err)
		}
	case EncMinHash:
		key = job.segKey
	}
	ct := mle.EncryptDeterministic(key, ch.Data)
	*res = uploadResult{ct: ct, cfp: fphash.FromBytes(ct), key: key}
	return nil
}

// scrambleOrder applies Algorithm 5's front/back shuffle to a slice of
// indices.
func scrambleOrder(in []int, rng *rand.Rand) []int {
	n := len(in)
	buf := make([]int, 2*n)
	front, back := n, n
	for _, v := range in {
		if rng.Intn(2) == 1 {
			front--
			buf[front] = v
		} else {
			buf[back] = v
			back++
		}
	}
	return buf[front:back]
}
