package fpindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"freqdedup/internal/bloom"
	"freqdedup/internal/container"
	"freqdedup/internal/fphash"
	"freqdedup/internal/vfs"
)

// ErrCorrupt is returned when a run file or index manifest fails
// structural validation or a checksum. Like container.ErrCorrupt it is
// distinct from "not found": the bytes are there but cannot be trusted,
// and the index layer responds by rebuilding from the containers (the
// authoritative copy) rather than ever serving a wrong Location.
var ErrCorrupt = errors.New("fpindex: index file corrupt")

// On-disk layout constants; see doc.go for the full format description.
const (
	runMagic    = 0x46444931 // "FDI1": one sorted-run file
	runVersion  = 1
	footerMagic = 0x46444946 // "FDIF"

	// runHeaderLen is magic + version + shard + level (u32 each) + u64
	// entry count.
	runHeaderLen = 24
	// entryLen is one posting: 8-byte fingerprint + u32 container ID +
	// u32 entry index.
	entryLen = fphash.Size + 8
	// blockEntries is the lookup granularity: postings per CRC-framed
	// block (64 KiB of entries). One fence per block stays in memory.
	blockEntries = 4096
	blockCRCLen  = 4
	// fenceLen is one in-memory fence: the block's first fingerprint and
	// its file offset.
	fenceLen = fphash.Size + 8
	// footerLen is filterOff + fenceOff + count (u64 each) + crc + magic.
	footerLen = 28 + 4 + 8
)

// Posting is one index entry: a fingerprint and where its chunk lives.
type Posting struct {
	FP  fphash.Fingerprint
	Loc container.Location
}

// sortPostings orders postings by fingerprint (the run file's invariant).
func sortPostings(ps []Posting) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].FP.Less(ps[j].FP) })
}

// runFileName returns the file holding one sorted run.
func runFileName(shard int, seq uint64) string {
	return fmt.Sprintf("run-%04d-%012d.fdi", shard, seq)
}

// fence is one block's in-memory index entry.
type fence struct {
	first  fphash.Fingerprint
	offset int64
}

// run is one immutable on-disk sorted run: open file handle, in-memory
// fences and Bloom filter, everything else on disk. Runs are never
// mutated after a successful writeRun; concurrent readers need no lock.
type run struct {
	f      vfs.File
	path   string
	shard  int
	seq    uint64
	level  int
	count  uint64
	filter *bloom.Filter
	fences []fence
	// filterOff/fenceOff delimit the sections: blocks end at filterOff,
	// the filter ends at fenceOff.
	filterOff int64
	fenceOff  int64
}

func (r *run) blocks() int { return len(r.fences) }

// blockRange returns the byte range of block i's entry region (CRC
// excluded) and how many entries it holds.
func (r *run) blockRange(i int) (off int64, entryBytes int, entries int) {
	off = r.fences[i].offset
	end := r.filterOff
	if i+1 < len(r.fences) {
		end = r.fences[i+1].offset
	}
	entryBytes = int(end-off) - blockCRCLen
	return off, entryBytes, entryBytes / entryLen
}

// readBlock reads and CRC-verifies one block, returning its raw entry
// bytes. This is the disk probe of a lookup; callers cache the result.
func (r *run) readBlock(i int) ([]byte, error) {
	off, entryBytes, _ := r.blockRange(i)
	buf := make([]byte, entryBytes+blockCRCLen)
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("fpindex: read run block: %w", err)
	}
	if crc := crc32.ChecksumIEEE(buf[:entryBytes]); crc != binary.LittleEndian.Uint32(buf[entryBytes:]) {
		return nil, fmt.Errorf("%w: %s block %d checksum mismatch", ErrCorrupt, filepath.Base(r.path), i)
	}
	return buf[:entryBytes], nil
}

// findBlock returns the index of the block that could hold fp, or -1 when
// fp sorts before the run's first fingerprint.
func (r *run) findBlock(fp fphash.Fingerprint) int {
	// The last fence with first <= fp.
	lo, hi := 0, len(r.fences)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.fences[mid].first.Compare(fp) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// searchBlock binary-searches verified block bytes for fp.
func searchBlock(block []byte, fp fphash.Fingerprint) (container.Location, bool) {
	lo, hi := 0, len(block)/entryLen
	for lo < hi {
		mid := (lo + hi) / 2
		e := block[mid*entryLen:]
		var efp fphash.Fingerprint
		copy(efp[:], e)
		switch c := efp.Compare(fp); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return container.Location{
				Container: int(binary.LittleEndian.Uint32(e[fphash.Size:])),
				Index:     int(binary.LittleEndian.Uint32(e[fphash.Size+4:])),
			}, true
		}
	}
	return container.Location{}, false
}

func (r *run) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// postingSource streams sorted postings into writeRun: a slice for
// memtable flushes, a k-way merge of runs for compaction.
type postingSource interface {
	// next returns the next posting in fingerprint order; ok is false at
	// the end of the stream.
	next() (p Posting, ok bool, err error)
	// remaining returns an upper bound on the postings left (used to size
	// the run's Bloom filter; exactness is not required).
	remaining() uint64
}

// sliceSource streams an already-sorted posting slice.
type sliceSource struct {
	ps []Posting
	i  int
}

func (s *sliceSource) next() (Posting, bool, error) {
	if s.i >= len(s.ps) {
		return Posting{}, false, nil
	}
	p := s.ps[s.i]
	s.i++
	return p, true, nil
}

func (s *sliceSource) remaining() uint64 { return uint64(len(s.ps) - s.i) }

// writeRun streams src into a new run file, fsyncs it, and opens it for
// reading. The caller owns making the file's existence durable (directory
// sync) and referencing it from the manifest; until then a crash leaves a
// stray file that the next open removes.
func writeRun(fsys vfs.FS, dir string, shard int, seq uint64, level int, src postingSource) (*run, error) {
	path := filepath.Join(dir, runFileName(shard, seq))
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fpindex: create run file: %w", err)
	}
	abort := func(err error) (*run, error) {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}

	filter := bloom.NewWithEstimates(src.remaining(), runFilterFPP)
	var hdr [runHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], runMagic)
	binary.LittleEndian.PutUint32(hdr[4:], runVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(level))
	// The count is back-filled once the source is drained.
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return abort(err)
	}

	var (
		fences []fence
		block  = make([]byte, 0, blockEntries*entryLen+blockCRCLen)
		first  fphash.Fingerprint
		n      int // entries in the current block
		count  uint64
		offset = int64(runHeaderLen)
	)
	flushBlock := func() error {
		if n == 0 {
			return nil
		}
		fences = append(fences, fence{first: first, offset: offset})
		block = binary.LittleEndian.AppendUint32(block, crc32.ChecksumIEEE(block))
		if _, err := f.WriteAt(block, offset); err != nil {
			return err
		}
		offset += int64(len(block))
		block = block[:0]
		n = 0
		return nil
	}
	var prev fphash.Fingerprint
	for {
		p, ok, err := src.next()
		if err != nil {
			return abort(err)
		}
		if !ok {
			break
		}
		if count > 0 && p.FP.Compare(prev) <= 0 {
			return abort(fmt.Errorf("fpindex: write run: postings out of order at %v", p.FP))
		}
		prev = p.FP
		if n == 0 {
			first = p.FP
		}
		block = append(block, p.FP[:]...)
		block = binary.LittleEndian.AppendUint32(block, uint32(p.Loc.Container))
		block = binary.LittleEndian.AppendUint32(block, uint32(p.Loc.Index))
		filter.Add(p.FP)
		count++
		if n++; n == blockEntries {
			if err := flushBlock(); err != nil {
				return abort(err)
			}
		}
	}
	if err := flushBlock(); err != nil {
		return abort(err)
	}
	if count == 0 {
		return abort(errors.New("fpindex: write run: empty posting source"))
	}

	filterOff := offset
	fbuf := filter.AppendBinary(nil)
	if _, err := f.WriteAt(fbuf, offset); err != nil {
		return abort(err)
	}
	offset += int64(len(fbuf))

	fenceOff := offset
	sec := make([]byte, 0, len(fences)*fenceLen+blockCRCLen)
	for _, fe := range fences {
		sec = append(sec, fe.first[:]...)
		sec = binary.LittleEndian.AppendUint64(sec, uint64(fe.offset))
	}
	sec = binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(sec))
	if _, err := f.WriteAt(sec, offset); err != nil {
		return abort(err)
	}
	offset += int64(len(sec))

	var ftr [footerLen]byte
	binary.LittleEndian.PutUint64(ftr[0:], uint64(filterOff))
	binary.LittleEndian.PutUint64(ftr[8:], uint64(fenceOff))
	binary.LittleEndian.PutUint64(ftr[16:], count)
	binary.LittleEndian.PutUint32(ftr[24:], crc32.ChecksumIEEE(ftr[:24]))
	binary.LittleEndian.PutUint32(ftr[28:], footerMagic)
	if _, err := f.WriteAt(ftr[:], offset); err != nil {
		return abort(err)
	}
	// Back-fill the header's entry count, then one fsync covers the whole
	// file: a run is durable only as a unit.
	binary.LittleEndian.PutUint64(hdr[16:], count)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	return &run{
		f: f, path: path, shard: shard, seq: seq, level: level,
		count: count, filter: filter, fences: fences,
		filterOff: filterOff, fenceOff: fenceOff,
	}, nil
}

// openRun opens an existing run file, reading only its footer, Bloom
// filter, and fence section — O(metadata), no posting blocks. Any
// structural or checksum failure returns ErrCorrupt (wrapped); the caller
// falls back to rebuilding the shard's index from its containers.
func openRun(fsys vfs.FS, dir string, shard int, seq uint64, level int, wantCount uint64) (*run, error) {
	path := filepath.Join(dir, runFileName(shard, seq))
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("fpindex: open run: %w", err)
	}
	fail := func(err error) (*run, error) {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	size := st.Size()
	if size < runHeaderLen+footerLen {
		return fail(fmt.Errorf("%w: %s shorter than header+footer", ErrCorrupt, filepath.Base(path)))
	}
	var hdr [runHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail(err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != runMagic {
		return fail(fmt.Errorf("%w: %s has bad magic %#x", ErrCorrupt, filepath.Base(path), m))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != runVersion {
		return fail(fmt.Errorf("%w: %s has unsupported version %d", ErrCorrupt, filepath.Base(path), v))
	}
	if s := binary.LittleEndian.Uint32(hdr[8:]); int(s) != shard {
		return fail(fmt.Errorf("%w: %s labeled shard %d", ErrCorrupt, filepath.Base(path), s))
	}
	var ftr [footerLen]byte
	if _, err := f.ReadAt(ftr[:], size-footerLen); err != nil {
		return fail(err)
	}
	if m := binary.LittleEndian.Uint32(ftr[28:]); m != footerMagic {
		return fail(fmt.Errorf("%w: %s has bad footer magic %#x", ErrCorrupt, filepath.Base(path), m))
	}
	if crc := crc32.ChecksumIEEE(ftr[:24]); crc != binary.LittleEndian.Uint32(ftr[24:]) {
		return fail(fmt.Errorf("%w: %s footer checksum mismatch", ErrCorrupt, filepath.Base(path)))
	}
	filterOff := int64(binary.LittleEndian.Uint64(ftr[0:]))
	fenceOff := int64(binary.LittleEndian.Uint64(ftr[8:]))
	count := binary.LittleEndian.Uint64(ftr[16:])
	if hc := binary.LittleEndian.Uint64(hdr[16:]); hc != count {
		return fail(fmt.Errorf("%w: %s header count %d, footer %d", ErrCorrupt, filepath.Base(path), hc, count))
	}
	// Geometry plausibility, checked before any count-derived allocation:
	// every section must fit the file, and the declared entry count must
	// fit the block region.
	if count == 0 || filterOff < runHeaderLen || fenceOff < filterOff || fenceOff > size-footerLen {
		return fail(fmt.Errorf("%w: %s has implausible section offsets", ErrCorrupt, filepath.Base(path)))
	}
	if count > uint64(filterOff-runHeaderLen)/entryLen {
		return fail(fmt.Errorf("%w: %s declares %d entries beyond its block region", ErrCorrupt, filepath.Base(path), count))
	}
	blocks := int((count + blockEntries - 1) / blockEntries)
	fenceBytes := blocks*fenceLen + blockCRCLen
	if int64(fenceBytes) != size-footerLen-fenceOff {
		return fail(fmt.Errorf("%w: %s fence section size mismatch", ErrCorrupt, filepath.Base(path)))
	}
	if wantCount != 0 && count != wantCount {
		return fail(fmt.Errorf("%w: %s holds %d entries, manifest says %d", ErrCorrupt, filepath.Base(path), count, wantCount))
	}

	sec := make([]byte, fenceBytes)
	if _, err := f.ReadAt(sec, fenceOff); err != nil {
		return fail(err)
	}
	if crc := crc32.ChecksumIEEE(sec[:fenceBytes-blockCRCLen]); crc != binary.LittleEndian.Uint32(sec[fenceBytes-blockCRCLen:]) {
		return fail(fmt.Errorf("%w: %s fence checksum mismatch", ErrCorrupt, filepath.Base(path)))
	}
	fences := make([]fence, blocks)
	prevOff := int64(0)
	for i := range fences {
		copy(fences[i].first[:], sec[i*fenceLen:])
		fences[i].offset = int64(binary.LittleEndian.Uint64(sec[i*fenceLen+fphash.Size:]))
		if fences[i].offset < runHeaderLen || fences[i].offset >= filterOff || fences[i].offset <= prevOff && i > 0 {
			return fail(fmt.Errorf("%w: %s fence %d offset out of range", ErrCorrupt, filepath.Base(path), i))
		}
		if i > 0 && !fences[i-1].first.Less(fences[i].first) {
			return fail(fmt.Errorf("%w: %s fences out of order at %d", ErrCorrupt, filepath.Base(path), i))
		}
		prevOff = fences[i].offset
	}
	if fences[0].offset != runHeaderLen {
		return fail(fmt.Errorf("%w: %s first block not at header end", ErrCorrupt, filepath.Base(path)))
	}

	fbuf := make([]byte, fenceOff-filterOff)
	if _, err := f.ReadAt(fbuf, filterOff); err != nil {
		return fail(err)
	}
	filter, consumed, err := bloom.Unmarshal(fbuf)
	if err != nil || consumed != len(fbuf) {
		return fail(fmt.Errorf("%w: %s filter section: %v", ErrCorrupt, filepath.Base(path), err))
	}

	r := &run{
		f: f, path: path, shard: shard, seq: seq, level: level,
		count: count, filter: filter, fences: fences,
		filterOff: filterOff, fenceOff: fenceOff,
	}
	// Every block's entry region must be a whole number of entries; check
	// now so lookups can trust blockRange arithmetic.
	total := uint64(0)
	for i := range fences {
		_, entryBytes, entries := r.blockRange(i)
		if entryBytes <= 0 || entryBytes%entryLen != 0 || entries > blockEntries {
			return fail(fmt.Errorf("%w: %s block %d has implausible size", ErrCorrupt, filepath.Base(path), i))
		}
		total += uint64(entries)
	}
	if total != count {
		return fail(fmt.Errorf("%w: %s blocks hold %d entries, footer says %d", ErrCorrupt, filepath.Base(path), total, count))
	}
	return r, nil
}

// mergeSource is the k-way merge of several runs' posting streams, newest
// run first: when the same fingerprint appears in several runs the newest
// posting wins and older ones are dropped. (The dedup store inserts each
// fingerprint once, so in-shard duplicates only arise from interrupted
// layout changes — the merge is defensive either way.)
type mergeSource struct {
	streams []*runStream // ordered newest first
	total   uint64
}

type runStream struct {
	r     *run
	block []byte
	bi    int // next block to read
	off   int // byte offset into block
	done  bool
}

func newMergeSource(runs []*run) *mergeSource {
	ms := &mergeSource{streams: make([]*runStream, len(runs))}
	for i, r := range runs {
		ms.streams[i] = &runStream{r: r}
		ms.total += r.count
	}
	return ms
}

func (s *runStream) peek() (fphash.Fingerprint, bool, error) {
	if s.done {
		return fphash.Fingerprint{}, false, nil
	}
	if s.off >= len(s.block) {
		if s.bi >= s.r.blocks() {
			s.done = true
			return fphash.Fingerprint{}, false, nil
		}
		b, err := s.r.readBlock(s.bi)
		if err != nil {
			return fphash.Fingerprint{}, false, err
		}
		s.block, s.bi, s.off = b, s.bi+1, 0
	}
	var fp fphash.Fingerprint
	copy(fp[:], s.block[s.off:])
	return fp, true, nil
}

func (s *runStream) pop() Posting {
	var p Posting
	copy(p.FP[:], s.block[s.off:])
	p.Loc.Container = int(binary.LittleEndian.Uint32(s.block[s.off+fphash.Size:]))
	p.Loc.Index = int(binary.LittleEndian.Uint32(s.block[s.off+fphash.Size+4:]))
	s.off += entryLen
	return p
}

func (ms *mergeSource) next() (Posting, bool, error) {
	// Smallest fingerprint across streams; ties go to the newest stream
	// (lowest slice index) and losers are skipped.
	best := -1
	var bestFP fphash.Fingerprint
	for i, s := range ms.streams {
		fp, ok, err := s.peek()
		if err != nil {
			return Posting{}, false, err
		}
		if !ok {
			continue
		}
		if best == -1 || fp.Less(bestFP) {
			best, bestFP = i, fp
		}
	}
	if best == -1 {
		return Posting{}, false, nil
	}
	p := ms.streams[best].pop()
	ms.total--
	for _, s := range ms.streams[best+1:] {
		fp, ok, err := s.peek()
		if err != nil {
			return Posting{}, false, err
		}
		if ok && fp == p.FP {
			s.pop()
			ms.total--
		}
	}
	return p, true, nil
}

func (ms *mergeSource) remaining() uint64 { return ms.total }
