// Package chunker partitions byte streams into chunks, the first stage of
// the deduplication pipeline (Section 2.1 of the paper).
//
// Two chunkers are provided:
//
//   - Fixed: fixed-size chunking, as used by the paper's VM dataset (4 KB
//     chunks of virtual machine images).
//   - ContentDefined: variable-size content-defined chunking driven by a
//     rolling Rabin fingerprint, with configurable minimum, average, and
//     maximum chunk sizes, as used by the FSL and synthetic datasets (8 KB
//     average).
//
// Both implement the Chunker interface and stream from an io.Reader, so
// arbitrarily large inputs can be chunked with bounded memory.
//
// # Ingest path
//
// ContentDefined reads directly into a fixed lookahead buffer. Although the
// rolling hash restarts at every chunk start, the fingerprint at a position
// a full window into its chunk depends only on the window ending there, not
// on where the chunk began. So each newly buffered stretch is scanned once,
// chunk boundaries unknown, by rabin.Hash.Matches, which runs four
// independent rolling states over four quarters of the stretch to overlap
// their table-lookup latency; the positions it reports are queued as
// candidate cuts, and a chunk ends at the first candidate in
// [start+Min, start+Max], else at start+Max. This hashes the positions
// before Min too, which a per-chunk scan could skip, but the overlapped
// lanes more than pay for them. Only when Min is below the window do the
// positions less than a window into a chunk get a short roll of their own
// from a reset hash.
//
// The same independence lets a refill be scanned on several cores without
// any stitching, in the two-stage shape of SS-CDC (Ni, Lin and Jiang,
// SYSTOR 2019): candidates are found in parallel, cuts chosen serially.
// A refill's new positions are cut into contiguous pieces, several per
// core (a single piece when GOMAXPROCS is 1 or the refill is short), and
// the pieces' candidate lists, taken in order, equal one Matches call over
// the whole stretch. The caller of Next scans pieces from the front, each
// only when a cut needs it, and helper goroutines started for the refill
// scan pieces from the back and exit when none is left. The caller waits
// only for a piece a helper has started, so where the helpers find no
// free core the scan is as serial as before, and it never waits for a
// helper to be scheduled. Every piece is done before the next refill may
// move the buffer. A chunker its caller stops calling leaves only helpers
// that scan the pieces still unclaimed and exit. Where a parent predicts
// the cuts, the expensive stage is the SHA-256 that proves each one, and
// NextRun splits it the same way (see Predicted cuts).
//
// # Predicted cuts
//
// A backup whose parent was chunked under the same Params can skip the
// scan where the parent predicts the next chunks (RapidCDC, Ni and Jiang,
// SoCC 2019, on the chunk locality of backup streams the paper's §4
// attack exploits). ContentDefined.NextRun(sizes, sums, out) takes a run
// of the parent's next chunks and cuts the longest prefix of it whose
// cuts are the ones Next would make. The argument, chunk by chunk: the
// parent's chunk of n bytes was cut at the first boundary in [Min, n], so
// no position in [Min, n) of it is a boundary. Whether a position is a
// boundary depends only on the chunk's bytes up to it (the window ending
// there, or from the chunk start when the position is less than a window
// in). So if the next n bytes have the parent chunk's SHA-256, none of
// those positions is a boundary here either, and the cut at n is Next's
// exactly when n is all Next may take (Max, or the rest of the stream) or
// position n is a boundary. Accepting chunk i only once chunks 0..i-1 are
// accepted applies that argument i times, so cut points are bit-identical
// to Next's whatever the predictions; a prediction from a parent chunked
// under other Params may cut wrongly, which is why the caller must know
// the parent's Params.
//
// NextRun verifies a run in groups that fit the lookahead without moving
// the bytes it holds, in the same speculate-then-accept split as the
// scan: the cheap tests serially, the expensive ones on every free core.
// It first tests each chunk's end position, serially, which turns away
// almost every wrong prediction before any hashing, and stops at the
// first that fails. Then the caller and helper goroutines claim the
// chunks that passed in ascending order, copy each into its own buffer
// and compare its SHA-256 (which the dedup client needs anyway as the
// convergent key), and stop claiming at the first mismatch; the caller
// cuts the chunks before it and leaves the rest unconsumed. The caller
// waits only for chunks a helper is hashing, so a helper that gets no
// core delays nothing, and at GOMAXPROCS 1 no helper starts. Since a
// goroutine can take longer to get an idle core than a group takes to
// hash, a group's helpers are started when the group before it is
// published; they wait for it, yielding their core, for a bounded time,
// and a run that stops lets them go at once.
//
// The bytes NextRun cuts are never scanned, and no refill scan starts for
// them. For a few Next calls after a cut by NextRun, findCut scans the
// chunk's own positions, serially, a few KiB at a time up to the first
// boundary, rather than the whole refill on every core: after a
// misprediction the next prediction usually lands, and a refill-wide scan
// would scan ahead for nothing.
//
// Each emitted chunk is copied exactly once, from the lookahead buffer into
// its own buffer; the seed implementation's second copy (reader to
// lookahead) is gone. A reader that returns neither data nor an error 100
// times in a row ends the stream with io.ErrNoProgress, as bufio does.
//
// # Buffer ownership and pooling
//
// Chunk.Data buffers are drawn from a package-level sync.Pool. A chunk's
// buffer is owned by the caller from the moment Next returns it:
//
//   - Callers that keep chunks (chunker.All, tests) simply let the garbage
//     collector reclaim them; no Release is required for correctness.
//   - Streaming consumers (the dedup client's backup pipeline) should call
//     Chunk.Release once the chunk's bytes are no longer referenced. The
//     buffer returns to the pool and is handed out by a later Next call,
//     making the steady-state ingest path allocation-free.
//
// After Release the chunk's Data must not be read or written — the buffer
// may already back another chunk. Releasing the same chunk twice is
// likewise a caller bug. Sub-slices of Data share the buffer, so they die
// with it at Release.
//
// The lookahead buffer comes from the same pools. A content-defined
// chunker that reaches io.EOF hands it back, after draining any pending
// scan whose helpers may still read it, so a chunker created after
// another one finished allocates no lookahead. A chunker that is
// cancelled or fails keeps its buffer for the garbage collector.
//
// # Deferred fingerprinting
//
// By default Next computes Chunk.Fingerprint (truncated SHA-256 of the
// content) before returning. Params.DeferFingerprint leaves Fingerprint
// zero so a downstream worker pool can hash chunks in parallel instead of
// serializing SHA-256 behind the chunker — the dedup client's backup
// pipeline does exactly that, and skips plaintext fingerprinting entirely
// for encryption modes that never use it.
package chunker
