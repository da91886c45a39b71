// Package freqdedup reproduces "Information Leakage in Encrypted
// Deduplication via Frequency Analysis" (Li, Qin, Lee, Zhang — DSN 2017;
// extended TR arXiv:1904.05736): frequency-analysis inference attacks
// against encrypted deduplication, the MinHash-encryption and scrambling
// defenses, and every substrate they run on — content-defined chunking,
// message-locked encryption, a DupLESS-style key manager, a deduplicating
// store, and a DDFS-like metadata pipeline.
//
// This package is the public facade: it re-exports the stable API from the
// internal packages so downstream users have a single import. The building
// blocks:
//
//   - Repository: the system front door. CreateRepository and
//     OpenRepository give a durable, snapshot-granular encrypted dedup
//     store — Backup/Restore/Snapshots/Delete/GC/Verify with a crash-safe
//     snapshot catalog and context-aware (cancellable) pipelines. It is
//     the one entry point for storage.
//   - Attacks: NewBasicAttack, NewLocalityAttack and NewAdvancedAttack
//     (with AttackConfig), run over AttackSource streams and scored by
//     AttackResult.InferenceRate.
//   - Defenses: EncryptMLE / EncryptMinHash / scheme-driven Encrypt, plus
//     StorageSavings for the efficiency evaluation.
//   - Workloads: Dataset / Backup, generated by GenerateWorkload from
//     the workload registry: the paper's "fsl", "synthetic" and "vm"
//     datasets and six further scenarios.
//   - Byte-level building blocks: chunkers, MLE schemes, and
//     NewKeyServer / DialKeyManager for server-aided MLE over TCP.
//   - Experiments: the eval runners regenerate each of the paper's
//     figures (see package internal/eval via the Fig* wrappers).
//
// See the runnable programs under examples/ for end-to-end usage.
package freqdedup

import (
	"freqdedup/internal/attack"
	"freqdedup/internal/chunker"
	"freqdedup/internal/container"
	"freqdedup/internal/dedup"
	"freqdedup/internal/defense"
	"freqdedup/internal/eval"
	"freqdedup/internal/fphash"
	"freqdedup/internal/keymgr"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// Fingerprint identifies a chunk by content.
type Fingerprint = fphash.Fingerprint

// FingerprintOf computes the fingerprint of chunk content.
func FingerprintOf(content []byte) Fingerprint { return fphash.FromBytes(content) }

// Chunking.
type (
	// Chunk is one chunk cut from an input stream. Chunk buffers come from
	// a pool; streaming consumers should call Chunk.Release when done with
	// a chunk's bytes (see internal/chunker's package documentation for
	// the ownership contract).
	Chunk = chunker.Chunk
	// Chunker cuts a stream into chunks.
	Chunker = chunker.Chunker
	// ChunkingParams configures content-defined chunking, including
	// DeferFingerprint for pipelines that hash chunk contents out of band
	// and Algorithm to select the boundary function.
	ChunkingParams = chunker.Params
	// ChunkAlgorithm selects a content-defined chunker's boundary
	// function: AlgoRabin or AlgoGear. The two are distinct formats —
	// their cut points differ, so data chunked with one does not
	// deduplicate against data chunked with the other.
	ChunkAlgorithm = chunker.Algorithm
)

// Chunking algorithms.
const (
	// AlgoRabin cuts with the rolling Rabin fingerprint — the original
	// freqdedup format and the default.
	AlgoRabin = chunker.AlgoRabin
	// AlgoGear cuts with a gear hash (FastCDC-style), on half the CPU per
	// byte of Rabin and, on two cores, about 1.3x its chunking speed. A
	// new format: NOT cut-point compatible with AlgoRabin.
	AlgoGear = chunker.AlgoGear
)

// NewFixedChunker returns a fixed-size chunker (the paper's VM dataset
// uses 4 KB fixed chunks).
var NewFixedChunker = chunker.NewFixed

// NewContentDefinedChunker returns a Rabin-fingerprint content-defined
// chunker (the paper's FSL and synthetic datasets use 8 KB average).
var NewContentDefinedChunker = chunker.NewContentDefined

// NewChunker returns the content-defined chunker selected by
// ChunkingParams.Algorithm.
var NewChunker = chunker.New

// NewGearChunker returns a gear-hash content-defined chunker (AlgoGear's
// concrete type).
var NewGearChunker = chunker.NewGear

// DefaultChunkingParams mirrors the paper's FSL chunking configuration.
var DefaultChunkingParams = chunker.DefaultParams

// Encryption.
type (
	// Key is a chunk encryption key.
	Key = mle.Key
	// KeyDeriver derives chunk keys from fingerprints (implemented by the
	// key-manager client and by NewLocalDeriver).
	KeyDeriver = mle.KeyDeriver
	// Recipe is a file's combined file/key recipe.
	Recipe = mle.Recipe
)

// ConvergentKey derives the convergent-encryption key of a chunk.
var ConvergentKey = mle.ConvergentKey

// EncryptDeterministic encrypts with AES-256-CTR under a key-derived IV:
// identical (key, plaintext) pairs give identical ciphertexts, the MLE
// property deduplication requires and frequency analysis exploits.
var EncryptDeterministic = mle.EncryptDeterministic

// DecryptDeterministic inverts EncryptDeterministic.
var DecryptDeterministic = mle.DecryptDeterministic

// NewLocalDeriver derives keys locally from a system-wide secret.
var NewLocalDeriver = mle.NewLocalDeriver

// NewServerAidedMLE returns the DupLESS-style encryption scheme.
var NewServerAidedMLE = mle.NewServerAided

// NewMinHashEncryption returns the MinHash encryption scheme (Algorithm 4).
var NewMinHashEncryption = mle.NewMinHash

// OpenRecipe decrypts and decodes a recipe sealed with Recipe.Seal.
var OpenRecipe = mle.OpenRecipe

// BruteForce mounts the offline brute-force attack against convergent
// encryption on a predictable candidate set (Section 2.2).
var BruteForce = mle.BruteForce

// Key manager (server-aided MLE over TCP).
type (
	// KeyServerConfig configures a key manager server.
	KeyServerConfig = keymgr.ServerConfig
	// KeyServer is the DupLESS-style key manager.
	KeyServer = keymgr.Server
	// KeyClient talks to a key manager and implements KeyDeriver.
	KeyClient = keymgr.Client
)

// NewKeyServer constructs a key manager server.
var NewKeyServer = keymgr.NewServer

// DialKeyManager connects and authenticates to a key manager.
var DialKeyManager = keymgr.Dial

// NewTokenBucket builds the rate limiter used to slow online brute force.
var NewTokenBucket = keymgr.NewTokenBucket

// ErrRateLimited is returned by the key-manager client when the server
// throttles a key request.
var ErrRateLimited = keymgr.ErrRateLimited

// ClientConfig configures a repository's backup pipeline (chunking, MLE
// scheme, defenses, and the worker count).
type ClientConfig = dedup.Config

// Encryption pipeline selectors (WithEncryption).
const (
	// EncConvergent encrypts each chunk under its content hash.
	EncConvergent = dedup.EncConvergent
	// EncServerAided derives per-chunk keys from a key manager.
	EncServerAided = dedup.EncServerAided
	// EncMinHash derives one key per segment from the segment's minimum
	// fingerprint (Algorithm 4).
	EncMinHash = dedup.EncMinHash
)

// DefaultStoreShards is a repository's index shard count when WithShards
// is not given.
const DefaultStoreShards = dedup.DefaultShards

// ErrChunkNotFound is wrapped by a restore whose recipe references a
// chunk the store does not hold.
var ErrChunkNotFound = dedup.ErrNotFound

// ErrStoreCorrupt is wrapped by reads of a damaged store file: data
// corruption surfaces as an error, never as silent wrong bytes.
var ErrStoreCorrupt = container.ErrCorrupt

// GCStats reports what a garbage-collection pass reclaimed.
type GCStats = dedup.GCStats

// Workload model (Section 5.1); GenerateWorkload generates the datasets.
type (
	// Backup is one full backup's chunk stream in logical order.
	Backup = trace.Backup
	// ChunkRef is one chunk occurrence (fingerprint and size).
	ChunkRef = trace.ChunkRef
	// Dataset is a series of backups of the same primary data.
	Dataset = trace.Dataset
)

// Attacks (Section 4), run by the streaming engine (internal/attack):
// pluggable Attack values consuming replayable AttackSource streams, each
// stream counted in one pass into a compact table, so the same attacks
// run on in-memory generated traces and on repository trace logs far
// larger than RAM.
type (
	// Pair is one inferred ciphertext-plaintext chunk pair.
	Pair = attack.Pair
	// AttackConfig parameterizes the attacks; SizeAware selects the
	// advanced variant.
	AttackConfig = attack.Config
	// GroundTruth maps ciphertext to true plaintext fingerprints.
	GroundTruth = attack.GroundTruth
	// AttackMode selects ciphertext-only or known-plaintext seeding.
	AttackMode = attack.Mode
	// Attack is one pluggable inference attack (basic / locality /
	// advanced x ciphertext-only / known-plaintext).
	Attack = attack.Attack
	// AttackParams is Attack.Run's settings argument; it has no fields
	// (pass AttackParams{}).
	AttackParams = attack.Params
	// AttackResult is one attack run's inferred pairs, stats, and
	// inference-rate denominator.
	AttackResult = attack.Result
	// AttackSource is a replayable chunk stream an attack consumes.
	AttackSource = attack.ChunkSource
	// AttackChunkReader is one open read pass over an AttackSource.
	AttackChunkReader = attack.ChunkReader
)

// Attack modes.
const (
	// CiphertextOnly seeds the attack from frequency ranks alone.
	CiphertextOnly = attack.CiphertextOnly
	// KnownPlaintext seeds the attack with leaked plaintext pairs.
	KnownPlaintext = attack.KnownPlaintext
)

// AttackStats reports the internals of one locality-attack run.
type AttackStats = attack.Stats

// Streaming attack engine entry points.
var (
	// NewBasicAttack / NewLocalityAttack / NewAdvancedAttack construct
	// the three attacks; AttackSuite returns all three for one config.
	NewBasicAttack    = attack.NewBasic
	NewLocalityAttack = attack.NewLocality
	NewAdvancedAttack = attack.NewAdvanced
	AttackSuite       = attack.Suite
	// BackupAttackSource adapts an in-memory backup stream; repository
	// trace logs implement AttackSource directly (see TapBackup).
	BackupAttackSource = attack.BackupSource
	SampleLeaked       = attack.SampleLeaked
	// DefaultAttackConfig returns the paper's locality parameters (u=1,
	// v=15, w=200,000, ciphertext-only).
	DefaultAttackConfig = attack.DefaultConfig
)

// Defenses (Section 6), simulated at trace level as in Section 7.1.
type (
	// Encrypted is a ciphertext stream plus ground truth.
	Encrypted = defense.Encrypted
	// DefenseScheme selects MLE, MinHash, or the combined scheme.
	DefenseScheme = defense.Scheme
	// DefenseOptions configures segmentation and scrambling.
	DefenseOptions = defense.Options
)

// Defense schemes.
const (
	// SchemeMLE is the undefended exact-dedup MLE baseline.
	SchemeMLE = defense.SchemeMLE
	// SchemeMinHash is MinHash encryption alone (Algorithm 4).
	SchemeMinHash = defense.SchemeMinHash
	// SchemeCombined is MinHash encryption plus segment scrambling.
	SchemeCombined = defense.SchemeCombined
)

// Defense entry points.
var (
	EncryptMLE            = defense.EncryptMLE
	EncryptMinHash        = defense.EncryptMinHash
	EncryptWithScheme     = defense.Encrypt
	StorageSavings        = defense.StorageSavings
	DefaultDefenseOptions = defense.DefaultOptions
)

// Experiments: the per-figure runners of the paper's evaluation.
type (
	// Figure is one reproduced table/figure.
	Figure = eval.Figure
	// EvalDatasets bundles the three evaluation datasets.
	EvalDatasets = eval.Datasets
)

// Figure runners (Sections 5 and 7), the Section 6.2 restore-locality
// check, and the ablations (DESIGN.md).
var (
	GenerateEvalDatasets      = eval.Generate
	Fig1                      = eval.Fig1FrequencyDistribution
	Fig4                      = eval.Fig4ParamSweep
	Fig5                      = eval.Fig5VaryAux
	Fig6                      = eval.Fig6VaryTarget
	Fig7                      = eval.Fig7SlidingWindow
	Fig8                      = eval.Fig8KnownPlaintext
	Fig9                      = eval.Fig9KPVaryAux
	Fig10                     = eval.Fig10Defense
	Fig11                     = eval.Fig11StorageSaving
	Fig13                     = eval.Fig13Metadata512
	Fig14                     = eval.Fig14Metadata4G
	RestoreLocality           = eval.RestoreLocality
	AblationDefenseComponents = eval.AblationDefenseComponents
	AblationSegmentSize       = eval.AblationSegmentSize
	AblationTieBreaking       = eval.AblationTieBreaking
)
