package defense

import (
	"fmt"

	"freqdedup/internal/attack"
	"freqdedup/internal/fphash"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

// Ablation schemes beyond the paper's evaluated set. The paper evaluates
// MinHash-only and MinHash+scrambling; these variants isolate the
// remaining components:
//
//   - SchemeScrambleOnly: per-chunk deterministic MLE keys (frequency
//     distribution fully preserved — every chunk deduplicates exactly) but
//     per-segment scrambled upload order. Separates how much of the
//     combined scheme's protection comes from order destruction alone.
//   - SchemeRCE: random convergent encryption (Bellare et al. [13],
//     discussed in Section 8): chunk bodies are encrypted under fresh
//     random keys, but deduplication requires a deterministic tag per
//     chunk, and the adversary observes the tags. The observable stream is
//     therefore exactly as informative as baseline MLE — RCE does not stop
//     frequency analysis, which is the paper's argument for why
//     randomized-body MLE variants do not help.
const (
	// SchemeScrambleOnly applies scrambling with per-chunk MLE keys.
	SchemeScrambleOnly Scheme = iota + 100
	// SchemeRCE models random convergent encryption's observable tags.
	SchemeRCE
)

// rceNamespace separates RCE tag fingerprints from MLE ciphertext
// fingerprints, so cross-scheme streams never collide by construction.
var rceNamespace = fphash.FromUint64(0x5245435f54414753) // "RCE_TAGS"

// EncryptScrambleOnly simulates scrambling without MinHash encryption:
// chunks keep the baseline MLE one-to-one mapping (the ciphertext
// frequency distribution equals the plaintext one), but the upload order
// is scrambled within each segment.
func EncryptScrambleOnly(b *trace.Backup, opt Options) (Encrypted, error) {
	segs, err := segment.Split(b.Chunks, opt.Segments)
	if err != nil {
		return Encrypted{}, fmt.Errorf("defense: segment: %w", err)
	}
	rng := opt.rng()
	out := &trace.Backup{Label: b.Label, Chunks: make([]trace.ChunkRef, 0, len(b.Chunks))}
	truth := make(attack.GroundTruth, len(b.Chunks))
	recipe := make([]trace.ChunkRef, 0, len(b.Chunks))
	cache := make(map[fphash.Fingerprint]fphash.Fingerprint)
	cfpOf := func(pfp fphash.Fingerprint) fphash.Fingerprint {
		cfp, ok := cache[pfp]
		if !ok {
			cfp = deriveCipherFP(fphash.Zero, pfp)
			cache[pfp] = cfp
		}
		return cfp
	}
	for _, s := range segs {
		seg := len(recipe)
		for _, c := range b.Chunks[s.Start:s.End] {
			cfp := cfpOf(c.FP)
			recipe = append(recipe, trace.ChunkRef{FP: cfp, Size: c.Size})
			truth[cfp] = c.FP
		}
		out.Chunks = appendUpload(out.Chunks, recipe[seg:], true, rng)
	}
	return Encrypted{Backup: out, Truth: truth, RecipeOrder: recipe}, nil
}

// EncryptRCE simulates the adversary's view of random convergent
// encryption: per-chunk ciphertext bodies are randomized, but duplicate
// detection exposes one deterministic tag per unique chunk, in logical
// order. Frequencies, neighbor structure, and sizes are all preserved —
// the stream is attack-equivalent to baseline MLE.
func EncryptRCE(b *trace.Backup) Encrypted {
	out := &trace.Backup{Label: b.Label, Chunks: make([]trace.ChunkRef, len(b.Chunks))}
	truth := make(attack.GroundTruth, len(b.Chunks))
	cache := make(map[fphash.Fingerprint]fphash.Fingerprint, len(b.Chunks))
	for i, c := range b.Chunks {
		tag, ok := cache[c.FP]
		if !ok {
			tag = deriveCipherFP(rceNamespace, c.FP)
			cache[c.FP] = tag
		}
		out.Chunks[i] = trace.ChunkRef{FP: tag, Size: c.Size}
		truth[tag] = c.FP
	}
	return Encrypted{Backup: out, Truth: truth, RecipeOrder: out.Chunks}
}
