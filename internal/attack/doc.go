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
// plaintext M) concurrently, one goroutine per stream; each stream is
// counted by two serial reads:
//
//	pass 1 (frequencies)  F_X: one flat []freqEntry arena, one entry per
//	                      unique chunk (count, first position, size) in
//	                      first-occurrence order, plus a fingerprint map
//	                      into it. An entry's arena index is the chunk's
//	                      dense int32 id.
//	pass 2 (pairs)        only for the locality attacks: every distinct
//	                      adjacent pair (left, cur) of ids, counted once
//	                      in one pair table. L_X[cur][left] and
//	                      R_X[left][cur] are the same event, so one
//	                      count (and first position) serves both rows.
//
// Each pass reads the source in 4096-ref batches. The stream itself is
// never materialized: resident memory is the unique chunks plus the
// distinct adjacent pairs, plus one batch, regardless of stream length.
//
// After pass 2 the pairs are bucketed into two compressed sparse row
// arrays, L and R, indexed by id, and every row is sorted once in the
// run's matching order: size class first for the advanced attack, then
// descending count, then first position (or fingerprint, under
// Config.ArbitraryTies), then fingerprint. The walk of Algorithms 2-3
// keeps the inferred set G as a FIFO queue of id pairs and the result T
// as a []int32 over ciphertext ids; each step pairs the first <= v
// entries of the popped pair's four row slices, so a step costs O(v)
// with no hashing or sorting (the advanced attack pairs per size class,
// a scan of the rows' class runs).
//
// Every ranking uses a total order (count, then first position where
// position ties are enabled, then fingerprint), so the ranked order is
// independent of the arena order and of the dense ids. The
// golden-equivalence suite (golden_test.go) holds this engine to recorded
// outputs — pair count, pair-list hash, stats, and the counts behind the
// inference rate — on the FSL, VM, and synthetic generator traces: the
// materialized-slice reference engine's for all three attacks in both
// modes, and the map-row engine's for the locality attacks with 2 % of
// the target leaked.
// reference_test.go holds the walk to a fingerprint-keyed map reference
// of Algorithms 2-3 on random streams and under fuzzing.
package attack
