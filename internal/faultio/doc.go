// Package faultio is the storage stack's fault-injection lab: a
// deterministic, seeded, scriptable fault layer that slides under the
// production code paths — never beside them — at one seam, the file
// system.
//
// MemFS implements vfs.FS, the interface every durable format (the .fdc
// container shards, the .fdr snapshot catalog, the .fdt trace log, the
// fingerprint index) performs its file operations through. MemFS is
// vfs.Mem — the plain in-memory filesystem an in-memory repository runs
// on — plus the injector and a durability model: writes land in the
// vfs.Mem (the volatile view), Sync copies a file to its durable view,
// and CrashImage materializes only the durable view — so "crash" means
// exactly what it means on real hardware: everything not fsynced is
// gone.
//
// # The fault-plan contract
//
// A Plan is a pure value: a Seed, an optional CrashAtOp, and an ordered
// list of Rules. The contract is determinism: the same Plan applied to
// the same workload injects byte-identical faults — same torn-write
// lengths, same flipped bits, same crash state — because every random
// choice is drawn from the plan's private rand.Rand seeded with
// Plan.Seed, and nothing else. No global randomness, no wall clock, no
// dependence on goroutine scheduling for single-threaded workloads.
//
// Rules are evaluated in order against each observed operation; the
// first rule whose Op and PathGlob match fires (from its Nth matching
// operation on, Count times). A firing fault either fails the operation
// (Err, ShortWrite — always wrapping ErrInjected) or corrupts silently
// (FlipBit: in-flight on a write, post-fsync on a sync).
//
// The crash clock counts mutating operations only (create, write,
// truncate, sync, rename, remove): reads cannot advance a machine toward
// a crash. When the clock reaches CrashAtOp, that operation and every
// later one fail with ErrCrashed. The workload's error handling runs
// exactly as it would on a dying machine; the harness then reopens the
// stack against CrashImage() and asserts the recovery invariants.
//
// MemFS declares its syncs ordered (vfs.SyncOrderer), and every wrapper
// around it must forward the declaration: where the stack overlaps
// fsyncs on the real disk (vfs.StartSync, the container seal pass), on
// MemFS each sync runs inline and completes before the next operation,
// so one workload has one operation sequence and the sweep is a function
// of the plan alone. One linear order stands for every interleaving a
// real disk could produce: recovery treats each file on its own (each
// container shard recovers its torn tail alone), and the seal pass
// acknowledges nothing until all its fsyncs have returned. A crash that
// leaves any subset of the pass's records durable therefore recovers
// like a crash in the serial order: each shard holds its new record or
// drops it, and an unacknowledged record is unreferenced either way.
//
// Injector.SyncPoints records the clock value of every acknowledged
// sync. These are the interesting crash points — between two syncs the
// durable state does not change, so a sweep over sync points (plus the
// full-resolution sweep in `make faults`) covers every distinct
// post-crash disk image the workload can produce.
package faultio
