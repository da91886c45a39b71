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
// # Sealed-container file format
//
// A FileBackend directory holds one file per shard, shard-NNNN.fdc, all
// little-endian. Each file starts with a 16-byte header:
//
//	u32 magic     "FDCF" (0x46444346)
//	u32 version   1
//	u32 shard     this file's shard index
//	u32 capacity  the store's container byte capacity
//
// followed by zero or more container records, appended in seal order. A
// record is self-contained:
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
//     past the last acknowledged seal). OpenFileBackend detects the torn
//     tail and truncates it; damage anywhere else is reported as
//     ErrCorrupt.
package container
