// Package container implements the container abstraction of deduplicated
// storage systems (Section 6.2 and 7.4.1): unique chunks are packed into
// multi-megabyte containers, the basic read/write units, in logical order.
// Grouping logically-adjacent chunks per container is what lets the DDFS
// prefetching strategy (load a whole container's fingerprints on an index
// hit) exploit chunk locality — and what restore's container window
// exploits on the read path.
//
// # Architecture
//
// A Store is the packer: it accumulates entries into one open container in
// memory and seals full containers through a Backend, the persistent side
// of the abstraction. Two backends exist:
//
//   - FileBackend persists each shard's containers in an append-only file,
//     fsyncing on every seal, and is what makes a dedup store survive a
//     process restart (dedup.NewStoreWithBackend / dedup.Open). Every
//     repository uses it — an in-memory one over a vfs.Mem — and the
//     fault lab (faultio.MemFS) injects its faults under it, at the file
//     seam.
//   - MemBackend keeps sealed containers in memory, for in-memory test
//     stores (dedup.NewStore) and the benchmark's stage replay.
//
// The ddfs metadata simulator keeps its own fingerprint-only containers
// and does not use this package's packer.
//
// The durability boundary is the seal: once Store.Flush (or an Append that
// sealed a full container) returns nil, that container is as durable as
// the backend makes it. Chunks still in the open container live only in
// memory; dedup.Store.Close seals them before shutdown.
//
// FlushAll seals the open containers of many shards in one pass, the
// barrier that ends every backup. FileBackend implements it
// (BatchSealer.SealAll) by serializing the records concurrently into
// pooled buffers, writing them in shard order, and starting each
// record's fsync (vfs.StartSync) before the next shard's write; the pass
// returns once every fsync it started has returned, and seals exactly the
// shards whose fsync succeeded. On the fault lab's filesystem the fsyncs
// are ordered, so the pass is op for op the serial one: one Seal per
// shard, in shard order, stopping at the first failure. Store creation
// writes the shard headers the same way.
//
// # Sealed-container file format
//
// A FileBackend directory holds one file per shard, shard-NNNN.fdc, all
// little-endian. Each is a reclog record log (internal/reclog, the
// framing the snapshot catalog and the trace logs share), whose 16-byte
// file header's reserved words hold the shard and the capacity:
//
//	u32 magic     "FDCF" (0x46444346)
//	u32 version   1
//	u32 shard     this file's shard index
//	u32 capacity  the store's container byte capacity
//
// followed by zero or more container records, appended in seal order. A
// record is a reclog record whose kind is the container ID, whose a and
// b are the entry count and the data bytes, and whose body holds the
// chunks:
//
//	u32 magic      "FDC1" (0x46444331)
//	u32 id         container ID (dense, equals record position)
//	u32 entries    number of chunks
//	u32 dataBytes  total chunk data bytes
//	entries × { fp [8]byte, u32 size }   -- the index header
//	dataBytes of chunk data, concatenated in entry order
//	u32 crc32      IEEE CRC over everything above
//
// The small index header ahead of the data lets a reopened store rebuild
// its fingerprint index by reading only fingerprints and sizes (Backend
// Scan with withData=false), seeking past the data regions.
//
// # Invariants
//
//   - Per shard, container IDs are dense and equal the record position in
//     the file; Seal enforces arrival in ID order, and a GC Rewrite
//     renumbers survivors densely from zero again.
//   - Every entry satisfies len(Data) == Size; FileBackend refuses to
//     seal one that does not.
//   - Sealed containers are immutable. The only mutation of a shard file
//     is appending a record or atomically replacing the whole file
//     (Rewrite writes a temporary file, fsyncs, and renames it over).
//   - Records are verified by CRC when their data is read; a checksum
//     mismatch surfaces as ErrCorrupt, never as silent wrong bytes.
//   - A crash can only tear the file's tail (a partially appended record
//     past the last acknowledged seal). The shard open replays record
//     headers only, so it stays O(metadata): a record is whole when its
//     header is well-formed, its ID follows the one before, and it ends
//     inside the file. OpenFileBackend truncates a torn tail, unless a
//     whole record whose CRC verifies follows it: then the record only
//     looks torn (a damaged length field runs it past the end of the
//     file), and the open fails with ErrCorrupt and leaves the file
//     unchanged, as it does for damage anywhere else.
//     OpenFileBackendSalvage skips the damaged record and leaves a torn
//     tail in place, and either refuses Seal until Repair rewrites the
//     shard. A whole last record whose CRC fails is kept, not truncated
//     as a torn tail: it may be an acknowledged container under a flipped
//     bit, so its Load reports ErrCorrupt and Repair quarantines it.
package container
