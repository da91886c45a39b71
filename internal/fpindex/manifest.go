package fpindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"freqdedup/internal/vfs"
)

// The manifest is one shard's committed index state: which runs exist and
// how many sealed containers they collectively cover (the watermark). It
// is rewritten whole on every
// flush, compaction, and rebuild, committed by temp-write + fsync +
// rename — the same atomic-replace discipline as the container shards'
// GC rewrite. Run files are fsynced before the manifest that references
// them, so a manifest never points at bytes a crash could have dropped;
// run files the manifest does not reference are strays from an
// interrupted flush or compaction and are removed on open.
const (
	manifestMagic = 0x4644494d // "FDIM"
	// manifestVersion 2 dropped version 1's trailing aggregate Bloom
	// filter. A version-1 manifest fails to decode, and its shard rebuilds
	// from its containers like a shard with a corrupt manifest.
	manifestVersion = 2
	// manifestHeaderLen is magic + version + shard + runCount (u32 each)
	// + watermark + nextSeq (u64 each).
	manifestHeaderLen = 32
	// manifestRunLen is one run reference: u64 seq, u32 level, u64 count.
	manifestRunLen = 20
)

// manifestName returns one shard's manifest file name.
func manifestName(shard int) string { return fmt.Sprintf("shard-%04d.mf", shard) }

// markerName returns one shard's layout-change marker file name. The
// marker is created (durably) before a container layout change — GC
// compaction or repair, which renumber containers and invalidate every
// run's locations — and removed only after the shard's index has been
// rebuilt against the new layout. A marker found on open means the runs
// cannot be trusted; the shard rebuilds from its containers.
func markerName(shard int) string { return fmt.Sprintf("shard-%04d.rebuild", shard) }

// runRef is one manifest entry referencing a run file.
type runRef struct {
	seq   uint64
	level int
	count uint64
}

// manifest is one shard's decoded manifest.
type manifest struct {
	watermark int    // sealed containers fully covered by the runs
	nextSeq   uint64 // next run sequence number
	runs      []runRef
}

// encode serializes the manifest.
func (m *manifest) encode(shard int) []byte {
	buf := make([]byte, 0, manifestHeaderLen+len(m.runs)*manifestRunLen+4)
	buf = binary.LittleEndian.AppendUint32(buf, manifestMagic)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.runs)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.watermark))
	buf = binary.LittleEndian.AppendUint64(buf, m.nextSeq)
	for _, r := range m.runs {
		buf = binary.LittleEndian.AppendUint64(buf, r.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.level))
		buf = binary.LittleEndian.AppendUint64(buf, r.count)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest parses and validates one shard's manifest bytes.
func decodeManifest(data []byte, shard int) (*manifest, error) {
	if len(data) < manifestHeaderLen+4 {
		return nil, fmt.Errorf("%w: manifest truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if crc := crc32.ChecksumIEEE(data[:len(data)-4]); crc != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	if m := binary.LittleEndian.Uint32(data); m != manifestMagic {
		return nil, fmt.Errorf("%w: manifest has bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest has unsupported version %d", ErrCorrupt, v)
	}
	if s := binary.LittleEndian.Uint32(data[8:]); int(s) != shard {
		return nil, fmt.Errorf("%w: manifest labeled shard %d, want %d", ErrCorrupt, s, shard)
	}
	runCount := int(binary.LittleEndian.Uint32(data[12:]))
	if want := manifestHeaderLen + runCount*manifestRunLen + 4; runCount < 0 || want != len(data) {
		return nil, fmt.Errorf("%w: manifest declares %d runs in %d bytes", ErrCorrupt, runCount, len(data))
	}
	m := &manifest{
		watermark: int(binary.LittleEndian.Uint64(data[16:])),
		nextSeq:   binary.LittleEndian.Uint64(data[24:]),
		runs:      make([]runRef, runCount),
	}
	off := manifestHeaderLen
	for i := range m.runs {
		m.runs[i].seq = binary.LittleEndian.Uint64(data[off:])
		m.runs[i].level = int(binary.LittleEndian.Uint32(data[off+8:]))
		m.runs[i].count = binary.LittleEndian.Uint64(data[off+12:])
		off += manifestRunLen
	}
	return m, nil
}

// writeManifest commits the manifest atomically: temp file, fsync,
// rename, directory sync. Every run the manifest references must already
// be durable (writeRun fsyncs) before this is called. The rename is the
// commit point: an error means the old manifest is still in place, so the
// directory sync after it is best-effort, as callers delete the new run
// on an error.
func writeManifest(fsys vfs.FS, dir string, shard int, m *manifest) error {
	name := filepath.Join(dir, manifestName(shard))
	tmpName := name + ".tmp"
	f, err := fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fpindex: create manifest: %w", err)
	}
	abort := func(err error) error {
		f.Close()
		fsys.Remove(tmpName)
		return err
	}
	if _, err := f.Write(m.encode(shard)); err != nil {
		return abort(fmt.Errorf("fpindex: write manifest: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("fpindex: sync manifest: %w", err))
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("fpindex: close manifest: %w", err)
	}
	if err := fsys.Rename(tmpName, name); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("fpindex: commit manifest: %w", err)
	}
	_ = vfs.SyncDir(fsys, dir)
	return nil
}

// readManifest loads one shard's manifest; a missing file returns
// (nil, nil) — a fresh shard.
func readManifest(fsys vfs.FS, dir string, shard int) (*manifest, error) {
	name := filepath.Join(dir, manifestName(shard))
	f, err := fsys.Open(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("fpindex: open manifest: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("fpindex: read manifest: %w", err)
	}
	return decodeManifest(data, shard)
}

// writeMarker durably creates the shard's layout-change marker.
func writeMarker(fsys vfs.FS, dir string, shard int) error {
	name := filepath.Join(dir, markerName(shard))
	f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fpindex: create layout marker: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fpindex: sync layout marker: %w", err)
	}
	return vfs.SyncDir(fsys, dir)
}

// removeMarker removes the shard's layout-change marker, if present.
func removeMarker(fsys vfs.FS, dir string, shard int) error {
	err := fsys.Remove(filepath.Join(dir, markerName(shard)))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// hasMarker reports whether the shard's layout-change marker exists.
func hasMarker(fsys vfs.FS, dir string, shard int) bool {
	_, err := fsys.Stat(filepath.Join(dir, markerName(shard)))
	return err == nil
}
