package fpindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"freqdedup/internal/bloom"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/vfs"
)

// buildSeedRun writes a valid two-block run file and returns its bytes.
func buildSeedRun(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	ps := make([]Posting, blockEntries+100)
	for i := range ps {
		ps[i] = Posting{FP: fphash.FromUint64(uint64(i)*7919 + 3), Loc: container.Location{Container: i / 64, Index: i % 64}}
	}
	sortPostings(ps)
	r, err := writeRun(vfs.OS, dir, 0, 1, 0, &sliceSource{ps: ps})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, runFileName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readPostings reads every posting of r in fingerprint order through
// runStream, the compaction merge's read path.
func readPostings(r *run, fn func(Posting)) error {
	s := &runStream{r: r}
	for {
		_, ok, err := s.peek()
		if err != nil || !ok {
			return err
		}
		fn(s.pop())
	}
}

// FuzzRunFile feeds arbitrary bytes to the run-file codec. The contract
// under attack: openRun plus every subsequent read either succeeds with
// exactly the postings a valid file holds, or fails with ErrCorrupt (or
// an I/O error) — truncation, bit flips, and forged counts must never
// produce a wrong Location or a panic.
func FuzzRunFile(f *testing.F) {
	seed := buildSeedRun(f)
	f.Add(seed, uint16(0), byte(0))
	f.Add(seed, uint16(len(seed)/2), byte(0x01))       // flip a bit mid-file
	f.Add(seed, uint16(len(seed)-5), byte(0x80))       // damage the footer
	f.Add(seed[:len(seed)/3], uint16(0), byte(0))      // truncated
	f.Add(seed[:runHeaderLen+10], uint16(16), byte(1)) // forged header count
	f.Add([]byte("FDI1 not really an index"), uint16(2), byte(4))

	// Reference locations from the intact seed: fp -> loc.
	want := map[fphash.Fingerprint]container.Location{}
	{
		dir := f.TempDir()
		if err := os.WriteFile(filepath.Join(dir, runFileName(0, 1)), seed, 0o644); err != nil {
			f.Fatal(err)
		}
		r, err := openRun(vfs.OS, dir, 0, 1, 0, 0)
		if err != nil {
			f.Fatal(err)
		}
		if err := readPostings(r, func(p Posting) { want[p.FP] = p.Loc }); err != nil {
			f.Fatal(err)
		}
		r.close()
	}

	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		mut := append([]byte(nil), data...)
		if len(mut) > 0 {
			mut[int(pos)%len(mut)] ^= mask
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, runFileName(0, 7)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openRun(vfs.OS, dir, 0, 7, 0, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, bloom.ErrCodec) && !isIOError(err) {
				t.Fatalf("openRun failed with unexpected error class: %v", err)
			}
			return
		}
		defer r.close()
		// The file opened: every posting it serves must agree with the
		// reference map (openRun succeeding on bytes that decode to other
		// postings is fine only if those postings were in a valid file —
		// the mutation must not smuggle a wrong Location past the CRCs).
		err = readPostings(r, func(p Posting) {
			if loc, ok := want[p.FP]; ok && loc != p.Loc {
				t.Fatalf("corrupt file served wrong location for %v: %v, want %v", p.FP, p.Loc, loc)
			}
		})
		if err != nil && !errors.Is(err, ErrCorrupt) && !isIOError(err) {
			t.Fatalf("reading postings failed with unexpected error class: %v", err)
		}
		// Spot lookups must be consistent too.
		for fp, loc := range want {
			got, ok, lerr := lookupRun(r, fp)
			if lerr != nil {
				break // detected corruption: acceptable
			}
			if ok && got != loc {
				t.Fatalf("corrupt file answered %v for %v, want %v", got, fp, loc)
			}
			break // one spot check per input keeps the fuzzer fast
		}
	})
}

// FuzzIndexManifest feeds arbitrary bytes to the manifest decoder that
// every index open runs. The contract: an error wrapping ErrCorrupt, or a
// manifest that re-encodes to exactly the input bytes — never a panic,
// and never a manifest that silently drops or invents state.
func FuzzIndexManifest(f *testing.F) {
	m := &manifest{watermark: 7, nextSeq: 12, runs: []runRef{{seq: 11, level: 0, count: 300}, {seq: 9, level: 1, count: 4100}}}
	v2 := m.encode(0)
	f.Add(v2)
	f.Add(manifestV1(v2))
	f.Add((&manifest{nextSeq: 1}).encode(0))
	f.Add(v2[:len(v2)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeManifest failed with unexpected error class: %v", err)
			}
			return
		}
		if got := m.encode(0); !bytes.Equal(got, data) {
			t.Fatalf("manifest decoded from %x re-encodes to %x", data, got)
		}
	})
}

// manifestV1 rewrites an encoded version-2 manifest in the version-1
// layout: version 1, and the aggregate Bloom filter version 1 carried
// between the run list and the CRC.
func manifestV1(v2 []byte) []byte {
	out := append([]byte(nil), v2[:len(v2)-4]...)
	binary.LittleEndian.PutUint32(out[4:], 1)
	out = bloom.NewWithEstimates(1024, 0.01).AppendBinary(out)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// lookupRun searches one run directly (test helper mirroring the shard
// lookup path without the cache).
func lookupRun(r *run, fp fphash.Fingerprint) (container.Location, bool, error) {
	if !r.filter.Contains(fp) {
		return container.Location{}, false, nil
	}
	bi := r.findBlock(fp)
	if bi < 0 {
		return container.Location{}, false, nil
	}
	block, err := r.readBlock(bi)
	if err != nil {
		return container.Location{}, false, err
	}
	loc, ok := searchBlock(block, fp)
	return loc, ok, nil
}

// isIOError reports whether err is a plain I/O failure (short read on a
// truncated file) rather than a validation failure.
func isIOError(err error) bool {
	return errors.Is(err, os.ErrNotExist) || errors.Is(err, os.ErrInvalid) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}
