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
	// Workers is the size of the worker pool each Backup starts for the
	// MLE hot path — plaintext fingerprints, key derivation, encryption,
	// ciphertext fingerprints — and the number of container read+decrypt
	// workers Restore fans out to. 0 selects GOMAXPROCS. Backup's pool
	// runs beside the chunking goroutine and the consumer even at 1, so
	// encryption always overlaps chunking. Recipes, store contents, and
	// restored bytes are identical for every worker count: parallelism
	// changes wall-clock time only.
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

// Sink is where the backup pipeline uploads: one PutBatchOwned call per
// upload window, from the pipeline's consumer goroutine, in upload order.
// The call borrows the chunks slice but owns every chunk's pooled chunker
// buffer (PutChunk.Buf) from the moment it is made, whatever it returns:
// it must release each one exactly once, when it no longer needs it, and
// the pipeline never touches them again. A chunk with bytes was encrypted
// in place, so its Data is its Buf's; *Store releases it once the bytes
// are copied into a container. The []bool result is ignored. *Store is the
// in-process sink; the network client's sink negotiates each window with a
// server instead and releases a buffer once its reply is handled: after
// the ciphertext is written to the wire, or found held.
//
// A window may hold reference-only chunks (PutChunk.Ref): the chunks of a
// client given a parent (SetParent) whose keys hit it, which were never
// encrypted. Each carries the fingerprint and size its ciphertext would
// have, and its plaintext in Buf, whose SHA-256 is its key. *Store counts
// a reference against the chunk its index holds, or fails closed; the
// network sink negotiates it like any chunk and, if the server answers
// miss, encrypts it then, in place.
type Sink interface {
	PutBatchOwned(chunks []PutChunk) ([]bool, error)
}

// parentTable is a convergent backup's parent (see SetParent): the
// parent recipe's entries in order, each key's first position among them,
// which of them the store does not hold, and, when the backup may predict
// its cuts from the parent, which chunk sizes the parent has. Under
// convergent encryption the key is the plaintext's SHA-256, so it alone
// fixes the ciphertext, its fingerprint and its size; a chunk whose key
// the table holds is uploaded as a reference-only chunk, without
// encrypting or hashing it.
type parentTable struct {
	entries []mle.RecipeEntry
	pos     map[mle.Key]int32
	lost    bitset // entry i's chunk is not held; nil when all are
	sizes   bitset // some entry is n bytes long; nil: no predictions
}

// hit returns the parent's recipe entry for key when the parent has the
// key and its chunk is held. A nil table has no hits.
func (t *parentTable) hit(key mle.Key) (mle.RecipeEntry, bool) {
	if t == nil {
		return mle.RecipeEntry{}, false
	}
	i, ok := t.pos[key]
	if !ok || t.lost.has(int(i)) {
		return mle.RecipeEntry{}, false
	}
	return t.entries[i], true
}

// bitset is a set of small non-negative integers.
type bitset []uint64

func (b bitset) has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

// set adds i to b, which must have room for it.
func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// Client is the client side of Figure 2: chunk, encrypt, upload. A Client
// is not safe for concurrent use (its scrambling RNG is stateful); run one
// Client per goroutine against a shared Store instead — that is the
// multi-client architecture the store's sharding is built for.
type Client struct {
	cfg     Config
	sink    Sink   // where Backup uploads
	store   *Store // what Restore reads; nil for a NewSinkClient client
	rng     *rand.Rand
	obsRefs []trace.ChunkRef // reused observation window (tap enabled only)
	parent  *parentTable     // dedup-before-encrypt table; see SetParent

	// predicted counts the bytes of the last backup that were cut where
	// the parent predicted (see SetParent).
	predicted atomic.Int64

	// Test hooks of the restore window (restore_test.go): windowBudget,
	// when positive, replaces the budget derived from store geometry, and
	// windowPeak is the last restore's high-water mark of retained bytes.
	windowBudget int64
	windowPeak   int64
}

// NewClient returns a client uploading to and restoring from store.
func NewClient(store *Store, cfg Config) (*Client, error) {
	if store == nil {
		return nil, errors.New("dedup: nil store")
	}
	c, err := NewSinkClient(store, cfg)
	if err != nil {
		return nil, err
	}
	c.store = store
	return c, nil
}

// NewSinkClient returns a backup-only client whose pipeline uploads to
// sink; it validates cfg exactly as NewClient does. Its Restore fails:
// there is no store to read from.
func NewSinkClient(sink Sink, cfg Config) (*Client, error) {
	if sink == nil {
		return nil, errors.New("dedup: nil sink")
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
	return &Client{cfg: cfg, sink: sink, rng: rand.New(rand.NewSource(seed))}, nil
}

// SetParent gives the client's convergent backups a parent, the recipe
// of an earlier backup (nil removes it); other encryptions ignore it. It
// saves two kinds of work.
//
// Encryption: a chunk whose key the parent has is uploaded as a
// reference-only chunk, unencrypted. A NewClient client does so only for
// the chunks its store holds when SetParent is called (Store.Contains),
// and every such chunk must stay in the store until the backups that use
// the parent finish: a reference to a chunk the store no longer holds
// fails the backup with an error wrapping ErrNotFound. A NewSinkClient
// client references every key the parent has; the network sink encrypts
// a hit the server reports missing.
//
// Chunking, with predict: after a chunk the parent has, the chunker cuts
// where the parent's next chunk ends, when the SHA-256 that is the
// chunk's key anyway proves the cut right (chunker.ContentDefined.NextAt),
// and scans for a boundary only where the prediction fails. The proof
// holds only if the parent was chunked under the client's own
// Config.Chunking: set predict only then. Gear chunking is never
// predicted.
//
// Recipes, upload windows, the upload observer's stream and the store's
// contents are identical with and without a parent.
func (c *Client) SetParent(parent *mle.Recipe, predict bool) {
	c.parent = nil
	if parent == nil || c.cfg.Encryption != EncConvergent {
		return
	}
	t := &parentTable{entries: parent.Entries, pos: make(map[mle.Key]int32, len(parent.Entries))}
	for i, e := range parent.Entries {
		if _, ok := t.pos[e.Key]; ok {
			continue
		}
		t.pos[e.Key] = int32(i)
		// An index lookup error counts as not held, so such a chunk is
		// encrypted and stored again, as any put with a failed lookup
		// would store it.
		if c.store != nil && !c.store.Contains(e.Fingerprint) {
			if t.lost == nil {
				t.lost = make(bitset, len(parent.Entries)/64+1)
			}
			t.lost.set(i)
		}
	}
	if predict {
		limit := c.cfg.Chunking.Max
		t.sizes = make(bitset, limit/64+1)
		for _, e := range parent.Entries {
			if int(e.Size) <= limit {
				t.sizes.set(int(e.Size))
			}
		}
	}
	c.parent = t
}

// encJob is one chunk's slot in the pipeline: the chunk, its position in
// the recipe and, when keyed, its key: the convergent key the producer or
// the segment stage computed already, or the segment's EncMinHash key.
type encJob struct {
	chunk chunker.Chunk
	idx   int
	key   mle.Key
	keyed bool
}

// uploadWindowChunks is how many chunks Backup hands the Sink at a time:
// ~8 MiB of ciphertext at the default 8 KiB average chunk size. The window
// is the unit of PutBatchOwned, of the upload observer and of the network
// client's negotiation, so its boundaries are a function of the chunk
// stream alone.
const uploadWindowChunks = 1024

// chunkQueueDepth is how many chunks the producer's channel holds: enough
// lookahead that the chunker keeps running while a window is being
// uploaded, small enough that resident plaintext stays bounded.
const chunkQueueDepth = 256

// Backup chunks, encrypts, and uploads the stream, returning the recipe
// needed to restore it. The recipe must be sealed with the user's key
// before being stored anywhere untrusted (mle.Recipe.Seal).
//
// Backup is one streaming pipeline in every configuration, and it keeps
// three kinds of goroutine busy at once. A producer goroutine runs the
// content-defined chunker (deferring plaintext SHA-256 out of the serial
// path, except where a parent predicts the cut: see SetParent) and hands
// over batches of chunkBatch chunks through a bounded channel. A pool of
// Config.Workers goroutines, started once per backup and joined before it
// returns, derives keys, encrypts and fingerprints ciphertexts: the
// consumer passes each batch to the pool the moment it arrives, so
// encryption runs while the chunker is still reading. The consumer fills
// upload windows of uploadWindowChunks chunks; when one is full (or the
// stream ends) it waits for that window's own batches only and hands the
// window to the Sink with one PutBatchOwned, which owns every chunk's
// buffer from that call on: the ciphertext the pool encrypted into it in
// place, or a parent hit's plaintext.
//
// Scrambling and MinHash encryption put a segment stage between the
// handoff and the upload window: the pool fingerprints each batch's
// plaintexts as it arrives, and once a gather of uploadWindowChunks
// chunks is in, the consumer feeds them to a segment.Splitter whose
// divisor configuration fixes (segment.Divisor of Config.Segments and
// Config.Chunking.Avg); each segment that closes gets its MinHash key and
// scrambled order, and joins the upload windows, which the pool encrypts;
// the open segment is carried into the next gather. Resident plaintext is
// at most chunkQueueDepth + chunkBatch + uploadWindowChunks chunks plus
// one open segment (Segments.MaxBytes / Chunking.Min chunks) whatever the
// length, and recipe, store layout, upload order and upload windows do
// not depend on the worker and shard counts, on how the reader fragments
// the stream, or on where the gathers fall.
//
// If Backup returns an error, the chunking goroutine may still be
// completing one final in-progress read of r before it shuts down. Do not
// reuse, reset, or close a non-thread-safe r immediately after a failed
// Backup; readers that tolerate concurrent use (*os.File) are unaffected.
// The worker pool never outlives Backup.
func (c *Client) Backup(r io.Reader) (*mle.Recipe, error) {
	return c.BackupContext(context.Background(), r)
}

// BackupContext is Backup with cancellation: when ctx is cancelled the
// pipeline stops promptly — the consumer returns ctx.Err() without waiting
// for an in-progress read of r, the pool's workers stop between chunks and
// are joined, and every pooled chunk buffer still in flight is handed back
// to the pool (the same drain contract as any other mid-backup error).
// Chunks uploaded before the cancellation remain in the store, where they
// deduplicate a retried backup or are reclaimed by the next GC.
func (c *Client) BackupContext(ctx context.Context, r io.Reader) (*mle.Recipe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := c.cfg.Chunking
	params.DeferFingerprint = true
	cdc, err := chunker.New(r, params)
	if err != nil {
		return nil, err
	}
	return c.backupStreaming(ctx, cdc)
}

// chunkBatch is how many chunks the producer hands over at a time: the
// consumer outruns the chunker, so each handoff wakes it from a park, and a
// wake-up per chunk cost a tenth of the pipeline's CPU time.
const chunkBatch = 32

// chunkMsg is one producer-to-consumer handoff: a batch of chunks, with
// the keys the producer computed, and the chunking error that ended it.
type chunkMsg struct {
	jobs [chunkBatch]encJob
	n    int
	err  error
}

func (m *chunkMsg) release() {
	for i := 0; i < m.n; i++ {
		m.jobs[i].chunk.Release()
	}
}

// maxBackoff bounds how many scanned chunks a cutter lets pass between
// two tries to find its place in the parent again.
const maxBackoff = 32

// cutter is a backup's chunker, with the cuts predicted from the parent
// when the backup may predict them (see SetParent): after a chunk the
// parent has, at position i, it offers the chunker the parent's chunk i+1
// (chunker.ContentDefined.NextAt), and it keys each chunk so cut with the
// parent's key. After a scanned chunk it looks for its place in the
// parent again by hashing the chunk, but only if the chunk's size occurs
// in the parent and a backoff allows: each try that finds nothing doubles
// the number of scanned chunks to let pass before the next, and a hit
// resets it. A chunk hashed to look it up keeps its key, so the pool does
// not hash it again.
type cutter struct {
	cdc       chunker.Chunker
	cd        *chunker.ContentDefined // nil: no predictions
	t         *parentTable
	next      int // the parent entry predicted next; -1: none
	wait      int // scanned chunks to let pass before the next lookup
	backoff   int
	predicted *atomic.Int64
}

func (c *Client) newCutter(cdc chunker.Chunker) *cutter {
	k := &cutter{cdc: cdc, next: -1, predicted: &c.predicted}
	if c.parent != nil && c.parent.sizes != nil {
		k.cd, _ = cdc.(*chunker.ContentDefined)
		k.t = c.parent
	}
	return k
}

// cut fills job with the next chunk. An error leaves job without one.
func (k *cutter) cut(job *encJob) error {
	if k.next >= 0 {
		e := &k.t.entries[k.next]
		ch, ok, err := k.cd.NextAt(int(e.Size), e.Key)
		if err != nil {
			return err
		}
		if ok {
			if k.next++; k.next == len(k.t.entries) {
				k.next = -1
			}
			k.predicted.Add(int64(len(ch.Data)))
			*job = encJob{chunk: ch, key: e.Key, keyed: true}
			return nil
		}
		k.next = -1
	}
	ch, err := k.cdc.Next()
	if err != nil {
		return err
	}
	*job = encJob{chunk: ch}
	if k.cd == nil {
		return nil
	}
	if k.wait > 0 {
		k.wait--
		return nil
	}
	if !k.t.sizes.has(len(ch.Data)) {
		return nil
	}
	job.key, job.keyed = mle.ConvergentKey(ch.Data), true
	if i, ok := k.t.pos[job.key]; ok {
		k.backoff = 0
		if int(i)+1 < len(k.t.entries) {
			k.next = int(i) + 1
		}
	} else {
		k.backoff = min(max(2*k.backoff, 1), maxBackoff)
		k.wait = k.backoff
	}
	return nil
}

// backupStreaming is the backup pipeline: producer goroutine, worker pool,
// segment stage when the configuration has one, upload window, sink.
// Chunks never accumulate beyond the bound in Backup's doc.
func (c *Client) backupStreaming(ctx context.Context, cdc chunker.Chunker) (*mle.Recipe, error) {
	chunks := make(chan chunkMsg, chunkQueueDepth/chunkBatch)
	done := make(chan struct{})
	pool := c.startPool(ctx)
	// Every chunk the consumer holds is in exactly one of five slices. in
	// has the last handoff's chunks not yet placed; win is the upload
	// window, in upload order. The segment stage adds three: gather has the
	// chunks received since the last drain, in stream order, while the pool
	// fingerprints them; pend, in stream order, has the open segment's
	// chunks (the first seen) and then the drained ones the splitter has
	// not seen; ready has the closed segments' jobs in upload order and is
	// empty between drains.
	var (
		inBuf               [chunkBatch]encJob
		in                  []encJob
		win                 = windowPool.Get().(*uploadWindow)
		gather, pend, ready []encJob
	)
	// On any return, stop the producer, then join the pool (a worker may
	// still be reading a chunk of a failed window), and only then hand
	// every chunk still in flight, buffered in the channel or held in a
	// slice, back to the chunker pool, so repeated failing backups stay as
	// allocation-lean as successful ones. The channel is drained on a
	// goroutine: the producer may be blocked in a stalled Read, and an
	// error return must not wait for it. On the success path the channel
	// is already closed and drained and every slice is empty, so only the
	// pool's join is left.
	defer func() {
		close(done)
		pool.stop()
		go func() {
			for msg := range chunks {
				msg.release()
			}
		}()
		for _, held := range [][]encJob{in, win.jobs, gather, pend, ready} {
			for i := range held {
				held[i].chunk.Release()
			}
		}
		win.jobs = win.jobs[:0]
		clear(win.puts)
		windowPool.Put(win)
	}()
	c.predicted.Store(0)
	cut := c.newCutter(cdc)
	go func() {
		defer close(chunks)
		var msg chunkMsg
		defer func() { msg.release() }() // a batch the consumer bailed on
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
			err := cut.cut(&msg.jobs[msg.n])
			switch {
			case err == nil:
				if msg.n++; msg.n < chunkBatch {
					continue
				}
			case !errors.Is(err, io.EOF):
				msg.err = fmt.Errorf("dedup: chunking: %w", err)
			case msg.n == 0:
				return
			}
			select {
			case chunks <- msg:
			case <-done:
				return
			}
			msg = chunkMsg{}
			if err != nil {
				return
			}
		}
	}()

	// Recipe entries are in stream order — each job's entry is copied to
	// the index it was received at once its window is done — while uploads
	// may be scrambled. Only this goroutine touches recipe.Entries.
	recipe := &mle.Recipe{}
	// flush uploads the window once the pool has finished its batches.
	flush := func() error {
		if len(win.jobs) == 0 {
			return nil
		}
		win.pending.Wait()
		if err := pool.err(); err != nil {
			return err
		}
		n := len(win.jobs)
		// Ownership transfer: every put carries its chunk's pooled buffer
		// (the ciphertext, encrypted in place, or a parent hit's
		// plaintext), which the sink owns from this call on, on every
		// path: the window forgets the chunks first, so the deferred
		// cleanup does not release them. The store preserves batch order
		// within a shard, so window boundaries do not show in the layout.
		for i := range win.jobs {
			win.jobs[i].chunk = chunker.Chunk{}
		}
		if _, err := c.sink.PutBatchOwned(win.puts[:n]); err != nil {
			return fmt.Errorf("dedup: upload: %w", err)
		}
		for i, job := range win.jobs {
			recipe.Entries[job.idx] = win.entries[i]
		}
		if err := c.observeWindow(win.entries[:n]); err != nil {
			return err
		}
		win.jobs = win.jobs[:0]
		return nil
	}
	// fill moves jobs into upload windows, flushing each one that fills.
	// On an error return *jobs holds exactly the jobs not yet moved, so
	// the deferred release sees every chunk once.
	fill := func(jobs *[]encJob) error {
		for len(*jobs) > 0 {
			n := min(len(*jobs), uploadWindowChunks-len(win.jobs))
			win.add(pool, (*jobs)[:n])
			*jobs = (*jobs)[n:]
			if len(win.jobs) == uploadWindowChunks {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The segment stage (Section 7.1), for the configurations that need
	// segments; without it the handoff batches go straight into the upload
	// windows.
	var (
		split   *segment.Splitter
		minhash *mle.MinHash
		fps     []fphash.Fingerprint
	)
	if c.cfg.Scramble || c.cfg.Encryption == EncMinHash {
		split = segment.NewSplitter(c.cfg.Segments, segment.Divisor(c.cfg.Segments, c.cfg.Chunking.Avg))
	}
	if c.cfg.Encryption == EncMinHash {
		minhash = mle.NewMinHash(c.cfg.Deriver)
	}
	// closeSegment moves pend[:n] to ready as one segment, under its MinHash
	// key and in scrambled order. The fallible key derivation comes first,
	// so the move cannot fail half way; the RNG is drawn on this goroutine
	// in stream order, so the order is a function of input, config and seed.
	closeSegment := func(n int) error {
		seg := pend[:n]
		if minhash != nil && n > 0 {
			fps = fps[:0]
			for i := range seg {
				fps = append(fps, seg[i].chunk.Fingerprint)
			}
			key, err := minhash.SegmentKey(fps)
			if err != nil {
				return err
			}
			for i := range seg {
				seg[i].key, seg[i].keyed = key, true
			}
		}
		if c.cfg.Scramble {
			for _, i := range segment.ScrambleOrder(n, c.rng) {
				ready = append(ready, seg[i])
			}
		} else {
			ready = append(ready, seg...)
		}
		pend = pend[n:]
		return nil
	}
	// gathered counts the pool's outstanding fingerprint batches of gather.
	// Plaintext fingerprints were deferred out of the chunker; segmentation
	// and MinHash need them, so the pool computes them as batches arrive,
	// in place: gather never grows past its capacity (a drain empties it
	// once uploadWindowChunks are in, before another batch can arrive), so
	// it is never reallocated under a worker.
	var gathered sync.WaitGroup
	if split != nil {
		gather = make([]encJob, 0, uploadWindowChunks+chunkBatch)
	}
	// drain pushes the gathered chunks through the segment stage and
	// uploads what closed, in windows; at eof the open segment closes too.
	// pend and ready are consumed from the front, and slide back to the
	// start of their buffers once only the open segment is left.
	drain := func(eof bool) error {
		gathered.Wait()
		if err := pool.err(); err != nil {
			return err
		}
		// Between drains pend holds only the open segment, which the
		// splitter has seen.
		seen := len(pend)
		pend = append(pend, gather...)
		gather = gather[:0]
		pendBuf := pend[:0]
		for seen < len(pend) {
			ch := pend[seen].chunk
			before, after := split.Add(trace.ChunkRef{FP: ch.Fingerprint, Size: uint32(ch.Size())})
			if before {
				if err := closeSegment(seen); err != nil {
					return err
				}
				seen = 0
			}
			seen++
			if after {
				if err := closeSegment(seen); err != nil {
					return err
				}
				seen = 0
			}
		}
		if eof {
			if err := closeSegment(seen); err != nil {
				return err
			}
		}
		readyBuf := ready[:0]
		// Each drain's closed segments start a fresh window and end with a
		// partial one, so the windows depend on the stream alone.
		if err := fill(&ready); err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
		pend, ready = append(pendBuf, pend...), readyBuf
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
		in = inBuf[:0]
		for _, job := range msg.jobs[:msg.n] {
			job.idx = len(recipe.Entries)
			in = append(in, job)
			recipe.Entries = append(recipe.Entries, mle.RecipeEntry{})
		}
		if msg.err != nil {
			return nil, msg.err
		}
		if split == nil {
			if err := fill(&in); err != nil {
				return nil, err
			}
			continue
		}
		lo := len(gather)
		gather, in = append(gather, in...), nil
		pool.submit(gather[lo:], nil, nil, &gathered)
		if len(gather) >= uploadWindowChunks {
			if err := drain(false); err != nil {
				return nil, err
			}
		}
	}
	if split == nil {
		if err := flush(); err != nil {
			return nil, err
		}
	} else if err := drain(true); err != nil {
		return nil, err
	}
	return recipe, nil
}

// uploadWindow is the upload window being filled: its jobs in upload
// order, and the window-local slots the pool encrypts them into — the
// ciphertexts for the Sink and the recipe entries. The slices are
// allocated once at their full size and jobs never grows past it, so no
// worker ever writes into a slice the consumer may reallocate.
type uploadWindow struct {
	jobs    []encJob
	puts    []PutChunk
	entries []mle.RecipeEntry
	pending sync.WaitGroup // the window's batches the pool has not finished
}

// windowPool recycles upload windows across backups; a backup puts its
// window back once its pool is joined and its chunks are released.
var windowPool = sync.Pool{New: func() any {
	return &uploadWindow{
		jobs:    make([]encJob, 0, uploadWindowChunks),
		puts:    make([]PutChunk, uploadWindowChunks),
		entries: make([]mle.RecipeEntry, uploadWindowChunks),
	}
}}

// add appends jobs (at most the window's free room) and hands them to the
// pool to encrypt.
func (w *uploadWindow) add(p *workerPool, jobs []encJob) {
	lo := len(w.jobs)
	w.jobs = append(w.jobs, jobs...)
	hi := len(w.jobs)
	p.submit(w.jobs[lo:], w.puts[lo:hi], w.entries[lo:hi], &w.pending)
}

// workerPool is the backup pipeline's one fan-out mechanism: Config.Workers
// goroutines, started with the backup and joined before it returns, that
// work through batches of at most chunkBatch jobs in the order the
// consumer submits them. The first error — an encryption failure, or ctx's
// once it is cancelled — is kept, and every later batch is skipped; the
// consumer reads it after waiting for the batches it needs.
type workerPool struct {
	c      *Client
	ctx    context.Context
	tasks  chan poolTask
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	first  error
}

// poolTask is one batch: with puts nil the worker fingerprints each job's
// plaintext in place; otherwise it encrypts jobs[i] into puts[i] and
// entries[i]. done counts the batch until the worker is through with it.
type poolTask struct {
	jobs    []encJob
	puts    []PutChunk
	entries []mle.RecipeEntry
	done    *sync.WaitGroup
}

// startPool starts the backup's workers. The task queue holds a whole
// window's batches, so the consumer rarely waits to submit.
func (c *Client) startPool(ctx context.Context) *workerPool {
	p := &workerPool{c: c, ctx: ctx, tasks: make(chan poolTask, uploadWindowChunks/chunkBatch)}
	p.wg.Add(c.cfg.Workers)
	for w := 0; w < c.cfg.Workers; w++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				if !p.failed.Load() {
					if err := p.run(t); err != nil {
						p.fail(err)
					}
				}
				t.done.Done()
			}
		}()
	}
	return p
}

func (p *workerPool) run(t poolTask) error {
	for i := range t.jobs {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if t.puts == nil {
			p.fingerprint(&t.jobs[i])
		} else if err := p.c.encryptOne(t.jobs[i], &t.puts[i], &t.entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint computes a job's plaintext fingerprint for the segment
// stage. A convergent job gets its key first, if it has none yet, and the
// fingerprint from it: fphash.FromBytes is a truncated SHA-256, and the
// convergent key is the whole one, so the chunk is hashed once.
func (p *workerPool) fingerprint(job *encJob) {
	if p.c.cfg.Encryption != EncConvergent {
		job.chunk.Fingerprint = fphash.FromBytes(job.chunk.Data)
		return
	}
	if !job.keyed {
		job.key, job.keyed = mle.ConvergentKey(job.chunk.Data), true
	}
	copy(job.chunk.Fingerprint[:], job.key[:])
}

// submit hands jobs to the workers in batches of at most chunkBatch (see
// poolTask), counting each batch on done. A send never waits long: the
// workers block on nothing but the queue, and skip batches once failed.
func (p *workerPool) submit(jobs []encJob, puts []PutChunk, entries []mle.RecipeEntry, done *sync.WaitGroup) {
	for lo := 0; lo < len(jobs); lo += chunkBatch {
		hi := min(lo+chunkBatch, len(jobs))
		t := poolTask{jobs: jobs[lo:hi], done: done}
		if puts != nil {
			t.puts, t.entries = puts[lo:hi], entries[lo:hi]
		}
		done.Add(1)
		p.tasks <- t
	}
}

func (p *workerPool) fail(err error) {
	p.mu.Lock()
	if p.first == nil {
		p.first = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// err returns the pool's first error; call it after waiting for batches.
func (p *workerPool) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// stop makes the workers skip whatever is still queued and joins them.
func (p *workerPool) stop() {
	p.failed.Store(true)
	close(p.tasks)
	p.wg.Wait()
}

// observeWindow feeds one acknowledged upload window to the configured
// observer: ciphertext fingerprints and ciphertext sizes in upload order,
// from the window's recipe entries. The scratch slice is reused across
// windows; the observer only borrows it. A nil observer costs one branch.
func (c *Client) observeWindow(entries []mle.RecipeEntry) error {
	if c.cfg.Observer == nil {
		return nil
	}
	if cap(c.obsRefs) < len(entries) {
		c.obsRefs = make([]trace.ChunkRef, len(entries))
	}
	refs := c.obsRefs[:len(entries)]
	for i, e := range entries {
		refs[i] = trace.ChunkRef{FP: e.Fingerprint, Size: e.Size}
	}
	if err := c.cfg.Observer.ObserveUpload(refs); err != nil {
		return fmt.Errorf("dedup: upload observer: %w", err)
	}
	return nil
}

// encryptOne processes one job: key derivation, deterministic encryption,
// and ciphertext fingerprinting for one chunk. Plaintext fingerprinting
// was deferred out of the chunker, so modes that need it (server-aided key
// derivation) compute it here, on the worker pool; convergent encryption
// never needs it at all. A convergent job keyed already (by the producer
// or the segment stage) is not hashed again. The chunk is encrypted in
// place: its plaintext is dead once its key (and, where needed, its
// fingerprint) exists, so its pooled buffer becomes the put's ciphertext.
// A convergent key whose chunk the parent holds (see SetParent) skips the
// rest: the slot gets the parent's recipe entry and a reference-only put
// carrying the plaintext, with no encryption and no ciphertext hash. Every
// put overwrites its whole slot, so no Data of an earlier window survives
// into a reference.
func (c *Client) encryptOne(job encJob, put *PutChunk, entry *mle.RecipeEntry) error {
	ch := job.chunk
	var key mle.Key
	switch c.cfg.Encryption {
	case EncConvergent:
		key = job.key
		if !job.keyed {
			key = mle.ConvergentKey(ch.Data)
		}
		if e, ok := c.parent.hit(key); ok {
			*put = PutChunk{FP: e.Fingerprint, Ref: true, Size: e.Size, Buf: ch}
			*entry = e
			return nil
		}
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
		key = job.key
	}
	mle.EncryptDeterministicInto(key, ch.Data, ch.Data)
	*put = PutChunk{FP: fphash.FromBytes(ch.Data), Data: ch.Data, Buf: ch}
	*entry = mle.RecipeEntry{Fingerprint: put.FP, Key: key, Size: uint32(len(ch.Data))}
	return nil
}
