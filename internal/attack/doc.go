// Package attack is the streaming frequency-analysis attack engine — the
// paper's primary contribution (Sections 3-5) rebuilt to run against what
// the real storage stack emits, at trace sizes far beyond RAM.
//
// The engine consumes ChunkSource: a replayable stream of (fingerprint,
// size) chunk references. Sources exist for in-memory backups
// (BackupSource — the trace generators and defense simulations)
// and for a repository's durable .fdt adversary trace log
// (internal/tracelog.BackupTrace), so the same attacks score synthetic
// workloads and real tapped upload histories.
//
// # Streaming two-pass architecture
//
// Each attack run counts its two streams (target ciphertext C, auxiliary
// plaintext M) with sharded, parallel, two-pass counters:
//
//	pass 1 (frequencies)  F_X: per-shard flat []freqEntry arenas, one
//	                      entry per unique chunk (count, first position,
//	                      size), fingerprint-prefix sharded exactly like
//	                      dedup.Store (fphash.Fingerprint.Shard).
//	pass 2 (neighbors)    L_X / R_X: per-shard co-occurrence rows, built
//	                      only for the locality attacks and pre-sized
//	                      from pass 1's unique counts.
//
// A scan goroutine reads the source in 4096-ref batches and broadcasts
// each batch to Params.Workers counting goroutines; every worker
// processes only the shards it owns, so counting is lock-free and each
// shard observes the stream strictly in order (first-occurrence positions
// and first-wins sizes match a serial count exactly). The stream itself
// is never materialized: resident memory is the tables (O(unique chunks))
// plus a few in-flight batches, regardless of stream length.
//
// Results are bit-identical at every shard and worker count because
// every ranking uses a total order (count, then first position where
// position ties are enabled, then fingerprint) — the ranked order is
// independent of arena concatenation order. The golden-equivalence suite
// (golden_test.go) holds this engine, at three shard/worker settings, to a
// recorded table of the materialized-slice reference engine's outputs —
// pair count, pair-list hash, stats, and the counts behind the inference
// rate — on the FSL, VM, and synthetic generator traces for all three
// attacks in both modes.
package attack
