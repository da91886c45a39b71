// Package defense implements the paper's defenses against frequency
// analysis (Section 6) at the trace level, mirroring the paper's own
// simulation methodology (Section 7.1, which operates directly on chunk
// fingerprints because the FSL and VM traces carry no chunk contents):
//
//   - MLE: the baseline — deterministic per-chunk encryption. Each
//     plaintext fingerprint maps to one ciphertext fingerprint.
//   - MinHash encryption (Algorithm 4): chunks are encrypted under a key
//     derived from their segment's minimum fingerprint, simulated as
//     cfp = H(minFP || pfp) — identical plaintext chunks under the same
//     segment minimum still deduplicate, others diverge.
//   - Scrambling (Algorithm 5): per-segment random front/back shuffling of
//     the chunk order, destroying the neighbor relations the
//     locality-based attack walks.
//   - Combined: scrambling followed by MinHash encryption.
//
// Every scheme returns the ciphertext stream in upload order together with
// the ground-truth ciphertext-to-plaintext mapping used to score attacks.
package defense

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

// Encrypted is the result of simulated encryption of one backup: the
// ciphertext chunk stream as the adversary would observe it before
// deduplication, and the ground-truth mapping for scoring attacks.
type Encrypted struct {
	Backup *trace.Backup
	Truth  attack.GroundTruth
	// RecipeOrder is the ciphertext chunk stream in the *original*
	// (pre-scrambling) logical order — the order a restore follows, since
	// file recipes preserve the original chunk order (Section 6.2). For
	// schemes that do not reorder uploads it equals Backup.Chunks.
	RecipeOrder []trace.ChunkRef
}

// EncryptMLE simulates baseline MLE (convergent or server-aided) on a
// backup: a global deterministic one-to-one mapping from plaintext to
// ciphertext fingerprints, preserving chunk order and sizes.
func EncryptMLE(b *trace.Backup) Encrypted {
	out := &trace.Backup{Label: b.Label, Chunks: make([]trace.ChunkRef, len(b.Chunks))}
	truth := make(attack.GroundTruth, len(b.Chunks))
	cache := make(map[fphash.Fingerprint]fphash.Fingerprint, len(b.Chunks))
	for i, c := range b.Chunks {
		cfp, ok := cache[c.FP]
		if !ok {
			cfp = deriveCipherFP(fphash.Zero, c.FP)
			cache[c.FP] = cfp
		}
		out.Chunks[i] = trace.ChunkRef{FP: cfp, Size: c.Size}
		truth[cfp] = c.FP
	}
	return Encrypted{Backup: out, Truth: truth, RecipeOrder: out.Chunks}
}

// Options configures the MinHash/scrambling pipeline.
type Options struct {
	// Segments configures segmentation (paper: 512 KB / 1 MB / 2 MB).
	Segments segment.Params
	// Scramble enables per-segment chunk-order scrambling before
	// encryption.
	Scramble bool
	// Seed drives the scrambling randomness, making experiments
	// reproducible. Real deployments would use crypto randomness; the
	// defense's security does not rest on the scrambling seed staying
	// secret per backup, only on the adversary not observing the original
	// order.
	Seed int64
	// Rand, when non-nil, is the injected scrambling source and takes
	// precedence over Seed. Every simulation call derives its randomness
	// from a private *rand.Rand either way — never from global math/rand
	// state — so parallel test shards cannot interleave generator state;
	// injection lets a caller thread one stream of randomness through a
	// sequence of encryptions. A *rand.Rand is not safe for concurrent
	// use: concurrent encryptions need distinct Rand values (or distinct
	// Seeds).
	Rand *rand.Rand
}

// rng returns the options' scrambling source: the injected Rand, or a
// fresh private generator seeded from Seed.
func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed))
}

// DefaultOptions returns the defense configuration with scrambling enabled
// (the combined scheme). Segment sizes are scaled down from the paper's
// 512 KB/1 MB/2 MB in proportion to the scaled datasets: the paper's
// segments cover a tiny fraction of a user's data, while a 1 MB segment on
// our laptop-scale traces would span several directories and mix volatile
// with stable content, re-keying far more chunks than the paper's setup
// does. 64 KB/128 KB/256 KB segments restore the paper's segment-to-churn
// granularity. Pass explicit Options with segment.DefaultParams() to use
// the paper's absolute sizes.
func DefaultOptions() Options {
	return Options{
		Segments: segment.Params{MinBytes: 64 << 10, AvgBytes: 128 << 10, MaxBytes: 256 << 10},
		Scramble: true,
		Seed:     1,
	}
}

// EncryptMinHash simulates MinHash encryption (with optional scrambling)
// on a backup. When opt.Scramble is set this is the paper's combined
// scheme. It returns an error only for invalid segmentation parameters.
func EncryptMinHash(b *trace.Backup, opt Options) (Encrypted, error) {
	segs, err := segment.Split(b.Chunks, opt.Segments)
	if err != nil {
		return Encrypted{}, fmt.Errorf("defense: segment: %w", err)
	}
	rng := opt.rng()
	out := &trace.Backup{Label: b.Label, Chunks: make([]trace.ChunkRef, 0, len(b.Chunks))}
	truth := make(attack.GroundTruth, len(b.Chunks))
	recipe := make([]trace.ChunkRef, 0, len(b.Chunks))
	for _, s := range segs {
		// The segment key comes from the segment minimum, which does not
		// depend on the order: the recipe (original order) and the upload
		// (scrambled order) reference the same ciphertext chunks.
		min := segment.MinFingerprint(b.Chunks, s)
		seg := len(recipe)
		for _, c := range b.Chunks[s.Start:s.End] {
			cfp := deriveCipherFP(min.FP, c.FP)
			recipe = append(recipe, trace.ChunkRef{FP: cfp, Size: c.Size})
			truth[cfp] = c.FP
		}
		out.Chunks = appendUpload(out.Chunks, recipe[seg:], opt.Scramble, rng)
	}
	return Encrypted{Backup: out, Truth: truth, RecipeOrder: recipe}, nil
}

// appendUpload appends one segment's ciphertext chunks to the upload
// stream, in Algorithm 5's scrambled order when scramble is set.
func appendUpload(upload, seg []trace.ChunkRef, scramble bool, rng *rand.Rand) []trace.ChunkRef {
	if !scramble {
		return append(upload, seg...)
	}
	for _, i := range segment.ScrambleOrder(len(seg), rng) {
		upload = append(upload, seg[i])
	}
	return upload
}

// deriveCipherFP derives the ciphertext fingerprint for a plaintext chunk
// fingerprint under a segment key context (the minimum fingerprint; zero
// for baseline MLE). This mirrors the paper's simulation: SHA-256 of the
// concatenation, truncated to the trace fingerprint size.
func deriveCipherFP(min, pfp fphash.Fingerprint) fphash.Fingerprint {
	var buf [2 * fphash.Size]byte
	copy(buf[:fphash.Size], min[:])
	copy(buf[fphash.Size:], pfp[:])
	sum := sha256.Sum256(buf[:])
	var out fphash.Fingerprint
	copy(out[:], sum[:fphash.Size])
	if out.IsZero() {
		out[0] = 1
	}
	return out
}

// Scheme identifies a trace-level encryption scheme for experiment
// drivers.
type Scheme int

const (
	// SchemeMLE is baseline deterministic MLE.
	SchemeMLE Scheme = iota + 1
	// SchemeMinHash is MinHash encryption without scrambling.
	SchemeMinHash
	// SchemeCombined is MinHash encryption with scrambling.
	SchemeCombined
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeMLE:
		return "MLE"
	case SchemeMinHash:
		return "MinHash"
	case SchemeCombined:
		return "Combined"
	case SchemeScrambleOnly:
		return "ScrambleOnly"
	case SchemeRCE:
		return "RCE"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Encrypt applies the scheme to one backup. The seed parameterizes
// scrambling (ignored by deterministic schemes).
func Encrypt(b *trace.Backup, s Scheme, seed int64) (Encrypted, error) {
	switch s {
	case SchemeMLE:
		return EncryptMLE(b), nil
	case SchemeMinHash:
		opt := DefaultOptions()
		opt.Scramble = false
		opt.Seed = seed
		return EncryptMinHash(b, opt)
	case SchemeCombined:
		opt := DefaultOptions()
		opt.Seed = seed
		return EncryptMinHash(b, opt)
	case SchemeScrambleOnly:
		opt := DefaultOptions()
		opt.Seed = seed
		return EncryptScrambleOnly(b, opt)
	case SchemeRCE:
		return EncryptRCE(b), nil
	default:
		return Encrypted{}, fmt.Errorf("defense: unknown scheme %v", s)
	}
}

// StorageSavings encrypts every backup of a dataset in creation order
// under the scheme and returns the cumulative storage saving after each
// backup (Figure 11): 1 - physicalBytes/logicalBytes, counting each unique
// ciphertext fingerprint's bytes once.
func StorageSavings(d *trace.Dataset, s Scheme, seed int64) ([]float64, error) {
	stored := make(map[fphash.Fingerprint]struct{})
	var logical, physical uint64
	out := make([]float64, 0, len(d.Backups))
	for i, b := range d.Backups {
		enc, err := Encrypt(b, s, seed+int64(i))
		if err != nil {
			return nil, err
		}
		for _, c := range enc.Backup.Chunks {
			logical += uint64(c.Size)
			if _, ok := stored[c.FP]; !ok {
				stored[c.FP] = struct{}{}
				physical += uint64(c.Size)
			}
		}
		out = append(out, 1-float64(physical)/float64(logical))
	}
	return out, nil
}
