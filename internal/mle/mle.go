// Package mle implements message-locked encryption (MLE) schemes for
// encrypted deduplication (Section 2.2 of the paper):
//
//   - Convergent encryption: the chunk key is the hash of the chunk content
//     (Douceur et al.), the classical MLE instantiation.
//   - Server-aided MLE (DupLESS-style): the chunk key is derived by a key
//     manager from the chunk fingerprint and a system-wide secret, making
//     offline brute-force infeasible for the adversary.
//   - MinHash encryption: one key per segment, derived from the minimum
//     chunk fingerprint of the segment (Algorithm 4) — the paper's first
//     defense against frequency analysis.
//   - Random convergent encryption (RCE): per-chunk random keys with a
//     deterministic content tag. Included to demonstrate (Section 8) that
//     the deterministic tag still leaks the frequency distribution.
//
// All deterministic schemes encrypt with AES-256-CTR under a key- derived
// IV, so identical (key, plaintext) pairs produce identical ciphertexts —
// the property deduplication requires and frequency analysis exploits.
// Ciphertext length equals plaintext length, which is what the advanced
// locality-based attack's size classification assumes.
package mle

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"freqdedup/internal/fphash"
)

// KeySize is the symmetric key size in bytes (AES-256).
const KeySize = 32

// Key is a chunk encryption key.
type Key [KeySize]byte

// ErrNoKeyDeriver is returned by schemes that require a key manager when
// none is configured.
var ErrNoKeyDeriver = errors.New("mle: no key deriver configured")

// KeyDeriver derives a chunk key from a chunk fingerprint. The server-aided
// key manager (package keymgr) implements this interface; tests use local
// implementations.
type KeyDeriver interface {
	DeriveKey(fp fphash.Fingerprint) (Key, error)
}

// KeyDeriverFunc adapts a function to the KeyDeriver interface.
type KeyDeriverFunc func(fp fphash.Fingerprint) (Key, error)

// DeriveKey implements KeyDeriver.
func (f KeyDeriverFunc) DeriveKey(fp fphash.Fingerprint) (Key, error) { return f(fp) }

// LocalDeriver derives keys as HMAC-SHA-256(secret, fingerprint) locally.
// It is the in-process equivalent of the key manager's derivation and is
// also what MinHash encryption uses to turn a minimum fingerprint into a
// segment key.
type LocalDeriver struct {
	secret []byte
}

var _ KeyDeriver = (*LocalDeriver)(nil)

// NewLocalDeriver returns a deriver keyed by secret. The secret plays the
// role of the key manager's system-wide secret.
func NewLocalDeriver(secret []byte) *LocalDeriver {
	s := make([]byte, len(secret))
	copy(s, secret)
	return &LocalDeriver{secret: s}
}

// DeriveKey implements KeyDeriver.
func (d *LocalDeriver) DeriveKey(fp fphash.Fingerprint) (Key, error) {
	mac := hmac.New(sha256.New, d.secret)
	mac.Write(fp[:])
	var k Key
	copy(k[:], mac.Sum(nil))
	return k, nil
}

// ConvergentKey returns the convergent-encryption key for a chunk: the
// SHA-256 hash of its content.
func ConvergentKey(chunk []byte) Key {
	return Key(sha256.Sum256(chunk))
}

// ivFor derives the deterministic CTR IV for a key. Because every distinct
// plaintext yields a distinct key under MLE, a key-derived IV is never
// reused across distinct plaintexts.
func ivFor(k Key) [aes.BlockSize]byte {
	// Fixed-size scratch keeps this allocation-free on the per-chunk
	// encrypt path; the hashed bytes are identical to key || label.
	const label = "freqdedup-iv"
	var buf [len(Key{}) + len(label)]byte
	copy(buf[:], k[:])
	copy(buf[len(Key{}):], label)
	sum := sha256.Sum256(buf[:])
	var iv [aes.BlockSize]byte
	copy(iv[:], sum[:aes.BlockSize])
	return iv
}

// EncryptDeterministic encrypts plaintext with AES-256-CTR under key k and
// a key-derived IV. The output has the same length as the input and is a
// deterministic function of (k, plaintext).
func EncryptDeterministic(k Key, plaintext []byte) []byte {
	out := make([]byte, len(plaintext))
	EncryptDeterministicInto(k, plaintext, out)
	return out
}

// EncryptDeterministicInto is EncryptDeterministic into dst, which must be
// at least len(plaintext) bytes; the ciphertext occupies the first
// len(plaintext) bytes of dst. dst may be plaintext itself: CTR mode
// encrypts in place, which is how the backup pipeline turns a chunk's
// pooled buffer into its ciphertext without a per-chunk allocation.
func EncryptDeterministicInto(k Key, plaintext, dst []byte) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the Key type
		// makes impossible.
		panic(fmt.Sprintf("mle: aes: %v", err))
	}
	iv := ivFor(k)
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst[:len(plaintext)], plaintext)
}

// DecryptDeterministic inverts EncryptDeterministic.
func DecryptDeterministic(k Key, ciphertext []byte) []byte {
	// CTR mode is an involution under the same key stream.
	return EncryptDeterministic(k, ciphertext)
}

// DecryptDeterministicInto decrypts ciphertext into dst, which must be at
// least len(ciphertext) bytes; the plaintext occupies the first
// len(ciphertext) bytes of dst. It exists so the restore pipeline can
// decrypt into pooled buffers without a per-chunk allocation.
func DecryptDeterministicInto(k Key, ciphertext, dst []byte) {
	EncryptDeterministicInto(k, ciphertext, dst)
}

// Convergent is the classical MLE scheme: per-chunk key = hash of content.
type Convergent struct{}

// Encrypt encrypts one chunk, returning the ciphertext and the chunk key
// (to be stored in the user's key recipe).
func (Convergent) Encrypt(chunk []byte) (ciphertext []byte, key Key) {
	key = ConvergentKey(chunk)
	return EncryptDeterministic(key, chunk), key
}

// ServerAided is DupLESS-style MLE: per-chunk key derived by a key manager
// from the chunk fingerprint.
type ServerAided struct {
	deriver KeyDeriver
}

// NewServerAided returns a server-aided scheme using the given deriver
// (typically a keymgr.Client).
func NewServerAided(d KeyDeriver) *ServerAided {
	return &ServerAided{deriver: d}
}

// Encrypt encrypts one chunk via the key manager.
func (s *ServerAided) Encrypt(chunk []byte) ([]byte, Key, error) {
	if s.deriver == nil {
		return nil, Key{}, ErrNoKeyDeriver
	}
	key, err := s.deriver.DeriveKey(fphash.FromBytes(chunk))
	if err != nil {
		return nil, Key{}, fmt.Errorf("mle: derive key: %w", err)
	}
	return EncryptDeterministic(key, chunk), key, nil
}

// MinHash implements MinHash encryption (Algorithm 4): all chunks of a
// segment are encrypted under one key derived from the minimum chunk
// fingerprint of the segment. Highly similar segments share the same
// minimum fingerprint with high probability (Broder's theorem), so most
// duplicate chunks still deduplicate, while occasional key divergence
// perturbs the ciphertext frequency ranking.
type MinHash struct {
	deriver KeyDeriver
}

// NewMinHash returns a MinHash encryptor whose segment keys are derived by
// d from the segment's minimum fingerprint.
func NewMinHash(d KeyDeriver) *MinHash {
	return &MinHash{deriver: d}
}

// SegmentKey derives the key for a segment given the fingerprints of its
// chunks. It returns an error if the segment is empty.
func (m *MinHash) SegmentKey(fps []fphash.Fingerprint) (Key, error) {
	if m.deriver == nil {
		return Key{}, ErrNoKeyDeriver
	}
	if len(fps) == 0 {
		return Key{}, errors.New("mle: empty segment")
	}
	min := fps[0]
	for _, fp := range fps[1:] {
		if fp.Less(min) {
			min = fp
		}
	}
	key, err := m.deriver.DeriveKey(min)
	if err != nil {
		return Key{}, fmt.Errorf("mle: derive segment key: %w", err)
	}
	return key, nil
}

// EncryptSegment encrypts every chunk of a segment under the segment key.
// It returns the ciphertexts and the shared key.
func (m *MinHash) EncryptSegment(chunks [][]byte) ([][]byte, Key, error) {
	fps := make([]fphash.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = fphash.FromBytes(c)
	}
	key, err := m.SegmentKey(fps)
	if err != nil {
		return nil, Key{}, err
	}
	out := make([][]byte, len(chunks))
	for i, c := range chunks {
		out[i] = EncryptDeterministic(key, c)
	}
	return out, key, nil
}

// RCECiphertext is a random-convergent-encryption ciphertext: a randomized
// body plus a deterministic tag. Deduplication matches on Tag, which is why
// RCE still leaks the chunk frequency distribution (Section 8).
type RCECiphertext struct {
	Body []byte
	// Tag is the deterministic duplicate-detection tag H(chunk).
	Tag fphash.Fingerprint
	// WrappedKey is the chunk's random key encrypted under the convergent
	// key of the chunk, so any holder of the plaintext can unwrap it.
	WrappedKey [KeySize]byte
}

// RCEEncrypt encrypts a chunk under a fresh random key and attaches the
// deterministic tag required for deduplication.
func RCEEncrypt(chunk []byte) (RCECiphertext, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return RCECiphertext{}, fmt.Errorf("mle: rce: %w", err)
	}
	ck := ConvergentKey(chunk)
	var wrapped [KeySize]byte
	ks := EncryptDeterministic(ck, k[:])
	copy(wrapped[:], ks)
	return RCECiphertext{
		Body:       EncryptDeterministic(k, chunk),
		Tag:        fphash.FromBytes(chunk),
		WrappedKey: wrapped,
	}, nil
}

// RCEDecrypt recovers the plaintext given the convergent key of the chunk.
func RCEDecrypt(ct RCECiphertext, convergentKey Key) []byte {
	var k Key
	copy(k[:], DecryptDeterministic(convergentKey, ct.WrappedKey[:]))
	return DecryptDeterministic(k, ct.Body)
}
