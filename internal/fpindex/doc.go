// Package fpindex is the fingerprint index, the only one the dedup store
// has: the DDFS-style answer (Section 7.4) to an in-memory map that is
// rebuilt by scanning every container on open. Each shard keeps a small
// memtable of recent insertions over a set of immutable on-disk sorted
// runs; each run's own Bloom filter (step S2: the summary vector, sized
// by the run's count) means a lookup for a certainly-new chunk reads no
// run block, and opening a repository reads only manifests, run footers,
// fences, and filters — O(metadata), independent of chunk count. Resident
// memory is bounded by the memtables, the filters, the fences, and a
// shared LRU of hot run blocks, not by the number of unique chunks.
//
// # Architecture
//
// An Index owns one Shard per dedup-store shard. Insertions land in the
// shard's memtable; when it reaches its threshold the dedup store flushes
// postings whose containers are sealed into a new level-0 run. When a
// level accumulates Fanout runs, they are k-way merged into one run on
// the next level — tiered compaction, performed off the shard lock so
// lookups proceed while it runs, by a worker goroutine started at the
// first compaction. A lookup checks the memtable, then each run
// newest-to-oldest (filter, fence, one block read through the shared
// cache); a lookup that reads no block counts as a Bloom negative.
//
// A store without an index directory runs the same index on a private
// in-memory filesystem, rebuilt from its containers on every open.
//
// The containers are the write-ahead log. The index is deliberately NOT
// synced on the backup hot path: each shard's manifest records a
// watermark — how many sealed containers its runs fully cover — and open
// rescans only the index headers of containers at or past the watermark
// into the memtable. A clean Close flushes everything (zero rescan); a
// crash costs a bounded tail rescan; losing the whole index directory
// costs a full rescan and nothing else.
//
// # Run file format
//
// A run file, run-SSSS-NNNNNNNNNNNN.fdi (shard, sequence number), is one
// immutable sorted run, all little-endian:
//
//	u32 magic   "FDI1" (0x46444931)
//	u32 version 1
//	u32 shard
//	u32 level
//	u64 count                     -- back-filled after the blocks
//	blocks × {
//	    ≤4096 × { fp [8]byte, u32 container, u32 index }   -- sorted by fp
//	    u32 crc32  IEEE, over the block's entries
//	}
//	Bloom filter                  -- bloom.AppendBinary, self-checksummed
//	fences × { fp [8]byte, u64 offset }, u32 crc32
//	footer:
//	    u64 filterOff  u64 fenceOff  u64 count
//	    u32 crc32 (over the three)  u32 magic "FDIF" (0x46444946)
//
// openRun reads header, footer, fences, and filter — never the blocks.
// One fence (first fingerprint + offset) per 4096-entry block stays in
// memory: 16 bytes per 64 KiB of postings.
//
// # Manifest and commit protocol
//
// shard-SSSS.mf is the shard's committed state, CRC-trailed and replaced
// atomically (temp file, fsync, rename, directory sync). Version 2, all
// little-endian:
//
//	u32 magic "FDIM" (0x4644494d)  u32 version 2  u32 shard  u32 runCount
//	u64 watermark  u64 nextSeq
//	runCount × { u64 seq, u32 level, u64 count }   -- newest first
//	u32 crc32  IEEE, over everything before it
//
// Version 1 carried a per-shard aggregate Bloom filter between the run
// list and the CRC, sized for a fixed 4M chunks (~5 MB in all). Version 2
// drops it; a version-1 manifest fails to decode, and its shard rebuilds
// from its containers like a shard whose manifest is corrupt.
//
// Ordering makes every transition crash-atomic:
//
//   - Flush/compaction: write + fsync the new run, then commit the
//     manifest, then delete superseded runs. A crash between steps leaves
//     either the old manifest (new run is an unreferenced stray, removed
//     at open) or the new one (old runs are strays).
//   - GC/repair renumber containers, invalidating every run's locations.
//     shard-SSSS.rebuild is made durable before the container rewrite and
//     removed only after the rebuilt index commits; found at open it
//     forces that shard back to watermark 0 — a full container rescan.
//
// # Invariants
//
//   - Runs are immutable after their single fsync; sequence numbers are
//     never reused, so cached blocks can never alias a newer run.
//   - Within a shard, a fingerprint maps to exactly one location, found
//     in the memtable or in at most one run (newest wins in the merge).
//   - Every structure is checksummed; a failed check surfaces as
//     ErrCorrupt and the shard rebuilds from its containers — the index
//     never serves a wrong Location and index loss never loses data.
//   - Each run's filter holds exactly the run's fingerprints; a false
//     positive costs one block probe, never a wrong answer.
package fpindex
