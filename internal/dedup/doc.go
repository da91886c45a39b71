// Package dedup implements a byte-level encrypted deduplication engine: the
// full client/server pipeline of Figure 2. A Client chunks an input stream,
// encrypts the chunks under a configurable MLE scheme (optionally with the
// paper's segment scrambling and MinHash encryption defenses), uploads the
// ciphertext chunks to a Store that deduplicates them into containers, and
// keeps a sealed recipe from which the original file is restored — in the
// original order, even when scrambling reordered the stored stream.
//
// # Concurrency model
//
// The engine is built for many clients hammering one store at once, the
// multi-client architecture of the paper's Figure 2:
//
//   - Store is lock-striped. The fingerprint index and the container
//     packer are split into N shards (NewStoreWithShards; NewStore picks
//     DefaultShards) keyed by fingerprint prefix (fphash.Fingerprint.Shard).
//     Put/Get lock only the owning shard; PutBatch groups a batch by shard
//     and locks each shard once. Each shard has its own open container, so
//     container packing is append-safe under concurrent writers without a
//     global packer lock.
//   - Client.Backup is one bounded streaming pipeline that keeps every
//     stage busy at once. A producer goroutine runs the content-defined
//     chunker (batch Rabin scanning over a fixed lookahead buffer,
//     plaintext SHA-256 deferred out of the serial path) and hands over
//     batches of 32 chunks through a bounded channel. A pool of
//     Config.Workers goroutines, started once per backup and joined before
//     it returns, is the pipeline's one fan-out: the consumer passes it
//     each batch as it arrives, and the workers derive keys, encrypt
//     (AES-256-CTR, the hot path) and fingerprint ciphertexts into the
//     slots of the current upload window while the chunker reads on. A
//     chunk is encrypted in place: its pooled chunker buffer becomes its
//     ciphertext, so no chunk allocates. When a window of 1024 chunks is
//     full the consumer waits for that window's own batches and uploads it
//     with one call to the client's Sink, which owns every chunk's buffer
//     from that call on and hands it back to the chunker pool once done
//     with it (PutChunk.Buf).
//   - Dedup before encrypt. A convergent client may hold a parent, an
//     earlier backup's recipe (Client.SetParent; a NewClient client
//     keeps as hits only the chunks its store holds). A chunk's
//     convergent key is its plaintext SHA-256, so when the worker finds
//     the key in the parent the parent's recipe entry is the chunk's: the
//     window slot gets that entry and a reference-only PutChunk (Ref,
//     FP, Size, and the plaintext in Buf, no Data) instead of an AES
//     encryption and a ciphertext SHA-256. The store counts a reference
//     as a duplicate only if its index holds the fingerprint and
//     otherwise fails closed with ErrNotFound, recording nothing for it;
//     it releases the plaintext unread. Recipes, windows,
//     the upload observer's stream and the containers are the same with
//     and without the parent.
//   - Predicted cuts. When the parent was chunked under the client's
//     own chunking parameters, the producer offers the chunker the
//     parent's next chunk after each chunk the parent has
//     (chunker.ContentDefined.NextAt), which cuts it without a boundary
//     scan if its SHA-256 matches; the SHA-256 is the chunk's key, which
//     the handoff carries to the worker. After a scanned chunk the
//     producer hashes it to find its place in the parent again, when the
//     chunk's size occurs in the parent and a doubling backoff allows.
//   - The Sink is the pipeline's only seam: a one-method interface
//     (PutBatchOwned) with two implementations. *Store is the in-process
//     sink (NewClient). The network client in internal/server is the
//     other (NewSinkClient): its sink turns each window into a
//     fingerprint negotiation with the server and uploads only the
//     misses, so local and remote backups run one pipeline — only
//     EncConvergent goes over the wire. The network client's table is
//     the recipe of its session's last committed backup. Its sink
//     negotiates a reference like any chunk, holds every buffer until
//     the server's reply is handled, encrypts a reference's plaintext in
//     place if the server answers miss, and releases the window's
//     buffers once its TChunkData frame is written.
//   - Buffers, not allocations. The store copies each new chunk into its
//     shard's open container; over a container.FileBackend that copy goes
//     into a pooled arena the container recycles once it is durably
//     sealed, so the open container's bytes are views that never leave
//     the shard lock: Get and the restore's container read copy them
//     under it. A restore reads every container into a pooled buffer the
//     window owns and puts back when it drops the container, after the
//     slabs that read its views are decrypted, on every path, error and
//     cancellation included (RestoreBufsOutstanding counts them with the
//     slabs). In steady state neither a backup nor a restore allocates per
//     chunk or per container beyond AES's per-key state.
//   - Scrambling and MinHash encryption add a segment stage between the
//     handoff and the upload window: the pool fingerprints each batch's
//     plaintexts as it arrives, and each gather of a window's worth of
//     chunks is fed to a segment.Splitter whose divisor comes from
//     configuration (segment.Divisor of Config.Segments and
//     Config.Chunking.Avg), never from the stream, so segments close while
//     the stream is arriving. A closed segment gets its MinHash key and
//     scrambled order (drawn on the consumer goroutine, in stream order)
//     and joins the upload windows, which the pool encrypts; the open one
//     is carried into the next gather. Resident plaintext is bounded by
//     the queue depth plus one window plus one open segment, regardless of
//     stream length.
//   - Client.Restore is planned from the recipe, which tells it its whole
//     future. Plan: every entry's container is resolved up front and each
//     container learns its first, next and last use. Prefetch window:
//     Config.Workers goroutines read the containers in first-use order,
//     whole and CRC-verified, each once, into a window bounded in bytes
//     (twice shards × container capacity — derived, not configured); a
//     container is dropped the moment its last referencing entry is
//     decrypted. Slab decrypt: runs of consecutive entries decrypt into
//     pooled MiB slabs. In-order write: one Write per slab. One
//     coordinator goroutine owns all window state and hands the workers
//     self-contained read and decrypt jobs, so there is no lock. Past
//     the budget the container with the farthest next use is evicted and
//     read again later; retained bytes stay within budget plus one
//     container, and which containers are read, in which order, depends
//     on the plan alone, never on timing. On any failure the restore
//     drains: every in-flight pooled buffer, slab or container, is handed
//     back, mirroring Backup's drain-on-error contract.
//   - Retention (RegisterBackup / DeleteBackup / GC, see gc.go) is
//     store-level under its own lock; GC additionally takes every shard
//     lock in index order, the package's global lock order.
//   - Cancellation. BackupContext, RestoreContext, and GCContext thread a
//     context through every pipeline: the backup consumer returns
//     promptly even while the producer is parked in a stalled Read, the
//     worker pools stop between items, and the GC sweep stops between
//     shards (already-swept shards keep their atomic rewrites). A
//     cancelled pipeline drains exactly like a failed one — every pooled
//     buffer is handed back before the ctx.Err() return.
//
// # Persistence
//
// Sealed containers live behind a pluggable container.Backend. The
// default is in-memory (NewStore / NewStoreWithShards); Create / Open /
// NewStoreWithBackend run the same engine over per-shard append-only
// files (container.FileBackend) so the store survives process restarts.
// The durability boundary is the container seal: a sealed container is
// fsynced before the seal is acknowledged, Close seals the open
// containers on shutdown, and Open rebuilds the fingerprint index (kept
// on a private in-memory filesystem unless StoreOptions.IndexDir names a
// directory) from the files' index headers without reading chunk data.
// Sync, the barrier that ends every backup, seals all shards' open
// containers in one pass under every shard lock (container.FlushAll):
// the records are serialized concurrently and written in shard order,
// and each shard's fsync is started before the next shard's write and
// awaited with the rest at the end, so the pass costs about one fsync of
// wall time rather than one per shard. On a fault-injecting filesystem
// the syncs run in order instead, so the crash clock is the serial one.
// GC compacts through the backend — each shard's rewrite is atomic (fresh file,
// rename over). Reads of damaged files fail with container.ErrCorrupt
// (records carry CRCs); they never return wrong bytes.
//
// Retention state, by contrast, is process-local: a reopened Store holds
// no registrations, and its documented "unregistered = unreferenced" GC
// rule reclaims everything. The snapshot Catalog (catalog.go) is the
// durable complement — a record log (internal/reclog) of sealed snapshot
// recipes beside the container files, from which the
// freqdedup.Repository front door rebuilds the registrations on open.
// Its open truncates a torn last record; a damaged record with a whole
// one after it is ErrCatalogCorrupt, the file left unchanged, and
// OpenCatalogSalvage skips it instead.
//
// # Invariants
//
// The concurrency is strictly a wall-clock optimization; results are
// deterministic:
//
//   - A fingerprint is owned by exactly one shard, so dedup decisions are
//     exact regardless of shard count, and dedup statistics (Stats) are
//     identical for every shard count.
//   - Recipes returned by Backup are bit-for-bit independent of
//     Config.Workers and of where gathers and upload windows fall:
//     encryption is deterministic MLE, results are slotted by window
//     position and recipe index, not completion order, and segment
//     boundaries depend on chunk content and configuration alone. The
//     upload windows themselves — their sizes and their order — depend on
//     the chunk stream alone, however the reader fragments it.
//   - With a single shard (NewStoreWithShards(n, 1)) and any worker count,
//     chunk placement — container IDs, entry order, sealing boundaries —
//     is bit-for-bit identical to the original serial engine.
//   - Restore output is byte-identical to a chunk-at-a-time restore for
//     every encryption/defense mode at every worker count and window size, and
//     a file-backed store reopened with Open restores the same bytes.
//   - A Store is safe for concurrent use; a Client is not (its scrambling
//     RNG is stateful). Run one Client per goroutine.
package dedup
