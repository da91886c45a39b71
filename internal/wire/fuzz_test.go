package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// reencode parses a payload of frame type typ with the matching Parse*
// and encodes the result again with the matching Append*. parsed is false
// when the payload does not parse or the type has no payload codec
// (TRestoreData carries raw bytes); err is the encoder's error.
func reencode(typ uint32, p []byte) (out []byte, parsed bool, err error) {
	var perr error
	switch typ {
	case THello:
		var h Hello
		if h, perr = ParseHello(p); perr == nil {
			out, err = AppendHello(nil, h)
		}
	case THelloOK:
		var h HelloOK
		if h, perr = ParseHelloOK(p); perr == nil {
			out = AppendHelloOK(nil, h)
		}
	case TError:
		var e ErrorInfo
		if e, perr = ParseError(p); perr == nil {
			out = AppendError(nil, e.Code, e.Msg)
		}
	case TBackupBegin, TRestoreReq, TDeleteReq:
		var name string
		if name, perr = ParseName(p); perr == nil {
			out, err = AppendName(nil, name)
		}
	case TBackupReady, TSnapshotsReq, TDeleteOK, TStatsReq:
		if len(p) != 0 {
			perr = errShort
		}
	case TNegotiate:
		var seq uint32
		var refs []trace.ChunkRef
		if seq, refs, perr = ParseNegotiate(p, nil); perr == nil {
			out = AppendNegotiate(nil, seq, refs)
		}
	case TNegotiateReply:
		var seq uint32
		var miss []bool
		if seq, miss, perr = ParseNegotiateReply(p, nil); perr == nil {
			out = AppendNegotiateReply(nil, seq, miss)
		}
	case TChunkData:
		var seq uint32
		var chunks [][]byte
		if seq, chunks, perr = ParseChunkData(p, nil); perr == nil {
			out = AppendChunkData(nil, seq, chunks)
		}
	case TWindowAck:
		var seq uint32
		if seq, perr = ParseSeq(p); perr == nil {
			out = AppendSeq(nil, seq)
		}
	case TBackupCommit:
		var entries []mle.RecipeEntry
		if entries, perr = ParseCommit(p); perr == nil {
			out, err = AppendCommit(nil, entries)
		}
	case TBackupDone:
		var s SnapshotInfo
		if s, perr = ParseSnapshotInfo(p); perr == nil {
			out = AppendSnapshotInfo(nil, s)
		}
	case TRestoreEnd:
		var v uint64
		if v, perr = ParseU64(p); perr == nil {
			out = AppendU64(nil, v)
		}
	case TSnapshotsReply:
		var list []SnapshotInfo
		if list, perr = ParseSnapshotList(p); perr == nil {
			out = AppendSnapshotList(nil, list)
		}
	case TStatsReply:
		var u TenantUsage
		if u, perr = ParseTenantUsage(p); perr == nil {
			out = AppendTenantUsage(nil, u)
		}
	default:
		return nil, false, nil
	}
	return out, perr == nil, err
}

// seedFrames returns one well-formed frame of every type.
func seedFrames(tb testing.TB) [][]byte {
	must := func(p []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	refs := []trace.ChunkRef{{FP: fphash.FromUint64(1), Size: 4096}, {FP: fphash.FromUint64(2), Size: 8192}}
	info := SnapshotInfo{Name: "daily", CreatedUnix: 1700000000, LogicalBytes: 1 << 20, Chunks: 128}
	payloads := map[uint32][]byte{
		THello:          must(AppendHello(nil, Hello{Version: Version, Tenant: "alice", Token: []byte("s3cret")})),
		THelloOK:        AppendHelloOK(nil, HelloOK{Version: Version, WindowChunks: 256, MaxInflight: 4, MaxChunkBytes: 1 << 20}),
		TError:          AppendError(nil, CodeNotFound, "no such snapshot"),
		TBackupBegin:    must(AppendName(nil, "daily")),
		TBackupReady:    nil,
		TNegotiate:      AppendNegotiate(nil, 3, refs),
		TNegotiateReply: AppendNegotiateReply(nil, 3, []bool{true, false, true, true, false, false, false, false, true}),
		TChunkData:      AppendChunkData(nil, 3, [][]byte{[]byte("ciphertext"), {}, []byte("more")}),
		TWindowAck:      AppendSeq(nil, 3),
		TBackupCommit:   must(AppendCommit(nil, []mle.RecipeEntry{{Fingerprint: refs[0].FP, Key: mle.Key{1, 2, 3}, Size: 4096}})),
		TBackupDone:     AppendSnapshotInfo(nil, info),
		TRestoreReq:     must(AppendName(nil, "daily")),
		TRestoreData:    []byte("restored plaintext"),
		TRestoreEnd:     AppendU64(nil, 1<<20),
		TSnapshotsReq:   nil,
		TSnapshotsReply: AppendSnapshotList(nil, []SnapshotInfo{info, {Name: "weekly"}}),
		TDeleteReq:      must(AppendName(nil, "daily")),
		TDeleteOK:       nil,
		TStatsReq:       nil,
		TStatsReply:     AppendTenantUsage(nil, TenantUsage{Tenant: "alice", Snapshots: 2, LogicalBytes: 3 << 20, StoredBytes: 1 << 20, SharedChunks: 7}),
	}
	var frames [][]byte
	for typ := THello; typ <= TStatsReply; typ++ {
		p, ok := payloads[typ]
		if !ok {
			tb.Fatalf("no seed frame for type %d", typ)
		}
		var c pipeConn
		if err := NewConn(&c).Send(typ, p); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, c.Bytes())
	}
	return frames
}

// allocatedBytes is the heap the process has allocated so far.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocSlack absorbs the small allocations a Recv or a parse makes
// whatever its input: error values, strings, slice headers.
const allocSlack = 64 << 10

// sealCRCs returns data with the checksum of every whole frame
// rewritten, so a mutated header or payload reaches Recv's length check
// and its parser instead of failing the CRC.
func sealCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; off+HeaderLen <= len(out); {
		n := binary.BigEndian.Uint32(out[off+8:])
		if n > MaxPayload || off+HeaderLen+int(n)+4 > len(out) {
			break
		}
		end := off + HeaderLen + int(n)
		binary.BigEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[off:end]))
		off = end + 4
	}
	return out
}

// FuzzFrame feeds arbitrary bytes to Conn.Recv, as given and with every
// frame's checksum made valid, and each received payload to the Parse*
// of its frame type. No input may panic; Recv may allocate at most ten
// times the bytes its input holds plus ten read steps, and a parser a small
// multiple of its payload, however the length and count fields lie; and
// every payload that parses re-encodes byte for byte through its
// Append*, so a frame has exactly one encoding.
func FuzzFrame(f *testing.F) {
	frames := seedFrames(f)
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrames(t, data)
		checkFrames(t, sealCRCs(data))
	})
}

// checkFrames receives and parses frames from data until Recv fails,
// holding each to FuzzFrame's oracle.
func checkFrames(t *testing.T, data []byte) {
	c := NewConn(bytes.NewBuffer(data))
	for {
		before := allocatedBytes()
		typ, p, err := c.Recv()
		if grew := allocatedBytes() - before; grew > 10*uint64(len(data))+10*recvStep+allocSlack {
			t.Fatalf("Recv allocated %d bytes from a %d-byte input", grew, len(data))
		}
		if err != nil {
			return
		}
		before = allocatedBytes()
		out, parsed, err := reencode(typ, p)
		if grew := allocatedBytes() - before; grew > 32*uint64(len(p))+allocSlack {
			t.Fatalf("type %d: parsing a %d-byte payload allocated %d bytes", typ, len(p), grew)
		}
		if !parsed {
			continue
		}
		if err != nil {
			t.Fatalf("type %d: payload %x parses but does not encode: %v", typ, p, err)
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("type %d: payload %x re-encodes as %x", typ, p, out)
		}
	}
}

// TestSnapshotListCountBounded holds FuzzFrame's allocation oracle on a
// payload too large for the fuzzer to build: a TSnapshotsReply whose
// count claims one entry per payload byte must not size the list by it.
func TestSnapshotListCountBounded(t *testing.T) {
	p := binary.BigEndian.AppendUint32(nil, 1<<20)
	p = append(p, make([]byte, 1<<20)...)
	var c pipeConn
	if err := NewConn(&c).Send(TSnapshotsReply, p); err != nil {
		t.Fatal(err)
	}
	checkFrames(t, c.Bytes())
}
