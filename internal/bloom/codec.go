package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Serialized filter layout (little-endian), used by the fingerprint
// index to store one filter per sorted run:
//
//	u32 magic "FDBL"
//	u64 m      (bits)
//	u32 k      (hash functions)
//	u64 count  (Add calls)
//	ceil(m/64) x u64 bit words
//	u32 crc32  (IEEE, over everything above)
const (
	codecMagic     = 0x4644424c // "FDBL"
	codecHeaderLen = 4 + 8 + 4 + 8
	codecCRCLen    = 4
)

// ErrCodec is returned by Unmarshal for bytes that do not decode to a
// filter (truncation, bad magic, checksum failure).
var ErrCodec = errors.New("bloom: serialized filter corrupt")

// MarshaledSize returns the exact byte length AppendBinary will add.
func (f *Filter) MarshaledSize() int {
	return codecHeaderLen + len(f.bits)*8 + codecCRCLen
}

// AppendBinary appends the filter's serialized form to buf and returns the
// extended slice. The encoding is self-validating: Unmarshal verifies a
// trailing CRC32 over the whole record.
func (f *Filter) AppendBinary(buf []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, codecMagic)
	buf = binary.LittleEndian.AppendUint64(buf, f.m)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.k))
	buf = binary.LittleEndian.AppendUint64(buf, f.count)
	for _, w := range f.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Unmarshal decodes one serialized filter from the beginning of data,
// returning the filter and how many bytes it consumed. It fails with
// ErrCodec (wrapped) on truncation, bad magic, implausible geometry, or a
// checksum mismatch — never with a silently wrong filter.
func Unmarshal(data []byte) (*Filter, int, error) {
	if len(data) < codecHeaderLen+codecCRCLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrCodec, len(data), codecHeaderLen+codecCRCLen)
	}
	if m := binary.LittleEndian.Uint32(data); m != codecMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", ErrCodec, m)
	}
	m := binary.LittleEndian.Uint64(data[4:])
	k := int(binary.LittleEndian.Uint32(data[12:]))
	count := binary.LittleEndian.Uint64(data[16:])
	if m == 0 || k <= 0 || k > 64 {
		return nil, 0, fmt.Errorf("%w: implausible geometry m=%d k=%d", ErrCodec, m, k)
	}
	words := (m + 63) / 64
	// Bound the allocation by what the input can actually hold before
	// trusting the declared size.
	n := codecHeaderLen + int(words)*8 + codecCRCLen
	if words > uint64(len(data))/8 || n > len(data) {
		return nil, 0, fmt.Errorf("%w: declared %d bit words exceed %d input bytes", ErrCodec, words, len(data))
	}
	if crc := crc32.ChecksumIEEE(data[:n-codecCRCLen]); crc != binary.LittleEndian.Uint32(data[n-codecCRCLen:]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCodec)
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: k, count: count}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[codecHeaderLen+i*8:])
	}
	return f, n, nil
}
