package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/trace"
)

// pipeConn is an in-memory ReadWriter: writes land in the buffer reads
// drain.
type pipeConn struct{ bytes.Buffer }

func roundTrip(t *testing.T, typ uint32, payload []byte) []byte {
	t.Helper()
	var p pipeConn
	c := NewConn(&p)
	if err := c.Send(typ, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	gotType, gotPayload, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if gotType != typ {
		t.Fatalf("type = %d, want %d", gotType, typ)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch: got %d bytes, want %d", len(gotPayload), len(payload))
	}
	return gotPayload
}

func TestFrameRoundTrip(t *testing.T) {
	roundTrip(t, THello, []byte("payload"))
	roundTrip(t, TBackupReady, nil)
	roundTrip(t, TRestoreData, bytes.Repeat([]byte{0xab}, 1<<20))
}

func TestFrameCorruption(t *testing.T) {
	var p pipeConn
	c := NewConn(&p)
	if err := c.Send(TWindowAck, AppendSeq(nil, 7)); err != nil {
		t.Fatal(err)
	}
	raw := p.Bytes()

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"payload bit flip", func(b []byte) []byte { b[HeaderLen] ^= 0x01; return b }},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"oversized length", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
	} {
		buf := tc.mutate(append([]byte(nil), raw...))
		_, _, err := NewConn(bytes.NewBuffer(buf)).Recv()
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", tc.name, err)
		}
	}

	// Truncation mid-payload is an I/O error, not silent success.
	if _, _, err := NewConn(bytes.NewBuffer(raw[:len(raw)-2])).Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, Tenant: "alice", Token: []byte("s3cret")}
	p, err := AppendHello(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.Tenant != in.Tenant || !bytes.Equal(out.Token, in.Token) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	if _, err := AppendHello(nil, Hello{Tenant: ""}); err == nil {
		t.Error("empty tenant accepted")
	}
}

func TestNegotiateRoundTrip(t *testing.T) {
	refs := make([]trace.ChunkRef, 300)
	for i := range refs {
		refs[i] = trace.ChunkRef{FP: fphash.FromBytes([]byte{byte(i), byte(i >> 8)}), Size: uint32(1000 + i)}
	}
	p := AppendNegotiate(nil, 42, refs)
	seq, got, err := ParseNegotiate(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(got) != len(refs) {
		t.Fatalf("seq=%d len=%d", seq, len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %+v, want %+v", i, got[i], refs[i])
		}
	}
	// Count/length mismatch must be rejected.
	if _, _, err := ParseNegotiate(p[:len(p)-4], nil); err == nil {
		t.Error("truncated negotiate accepted")
	}
}

func TestNegotiateReplyRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 300} {
		miss := make([]bool, n)
		for i := range miss {
			miss[i] = i%3 == 0
		}
		p := AppendNegotiateReply(nil, 9, miss)
		seq, got, err := ParseNegotiateReply(p, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if seq != 9 || len(got) != n {
			t.Fatalf("n=%d: seq=%d len=%d", n, seq, len(got))
		}
		for i := range miss {
			if got[i] != miss[i] {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, got[i], miss[i])
			}
		}
	}
}

func TestChunkDataRoundTrip(t *testing.T) {
	chunks := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 9000)}
	p := AppendChunkData(nil, 3, chunks)
	seq, got, err := ParseChunkData(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || len(got) != len(chunks) {
		t.Fatalf("seq=%d len=%d", seq, len(got))
	}
	for i := range chunks {
		if !bytes.Equal(got[i], chunks[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

// countingRW counts the bytes written to it and discards them.
type countingRW struct{ n int }

func (w *countingRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *countingRW) Read([]byte) (int, error)    { return 0, io.EOF }

// TestSendChunkDataMatchesSend holds the streamed TChunkData frame to the
// assembled one: for no chunks, one chunk and many (an empty chunk, one
// larger than the conn's 64 KiB buffer, and enough to flush it several
// times), SendChunkData writes exactly the bytes Send(TChunkData,
// AppendChunkData(…)) writes, and Recv parses them back.
func TestSendChunkDataMatchesSend(t *testing.T) {
	many := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 100<<10)}
	for i := 0; i < 300; i++ {
		many = append(many, bytes.Repeat([]byte{byte(i)}, 1+i*37%4096))
	}
	for _, tc := range []struct {
		name   string
		chunks [][]byte
	}{
		{"none", nil},
		{"one", [][]byte{bytes.Repeat([]byte{9}, 8192)}},
		{"many", many},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want, got pipeConn
			if err := NewConn(&want).Send(TChunkData, AppendChunkData(nil, 41, tc.chunks)); err != nil {
				t.Fatal(err)
			}
			c := NewConn(&got)
			if err := c.SendChunkData(41, tc.chunks); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streamed frame (%d bytes) differs from the assembled one (%d bytes)", got.Len(), want.Len())
			}
			typ, p, err := c.Recv()
			if err != nil || typ != TChunkData {
				t.Fatalf("Recv = %d, %v", typ, err)
			}
			seq, out, err := ParseChunkData(p, nil)
			if err != nil || seq != 41 || len(out) != len(tc.chunks) {
				t.Fatalf("ParseChunkData = %d, %d chunks, %v", seq, len(out), err)
			}
			for i := range out {
				if !bytes.Equal(out[i], tc.chunks[i]) {
					t.Fatalf("chunk %d differs", i)
				}
			}
		})
	}
}

// TestSendChunkDataLimit: a chunk list whose payload is exactly
// MaxPayload goes out whole, and one byte more is rejected before any
// byte reaches the conn.
func TestSendChunkDataLimit(t *testing.T) {
	mib := make([]byte, 1<<20)
	chunks := make([][]byte, 64)
	for i := range chunks {
		chunks[i] = mib
	}
	// 8 + 64·4 + 64 MiB is 264 bytes over; shrink the last chunk to fit.
	chunks[63] = mib[:len(mib)-264]
	var w countingRW
	if err := NewConn(&w).SendChunkData(1, chunks); err != nil {
		t.Fatalf("payload of exactly MaxPayload: %v", err)
	}
	if want := HeaderLen + MaxPayload + 4; w.n != want {
		t.Fatalf("wrote %d bytes, want %d", w.n, want)
	}
	chunks[63] = mib[:len(mib)-263]
	w = countingRW{}
	err := NewConn(&w).SendChunkData(1, chunks)
	if err == nil {
		t.Fatal("payload over MaxPayload accepted")
	}
	if w.n != 0 {
		t.Fatalf("%d bytes reached the conn before the rejection (%v)", w.n, err)
	}
}

func TestCommitRoundTrip(t *testing.T) {
	entries := make([]mle.RecipeEntry, 50)
	for i := range entries {
		entries[i] = mle.RecipeEntry{
			Fingerprint: fphash.FromBytes([]byte{byte(i)}),
			Key:         mle.ConvergentKey([]byte{byte(i), 1}),
			Size:        uint32(100 * i),
		}
	}
	p, err := AppendCommit(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseCommit(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("len = %d, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestSnapshotListRoundTrip(t *testing.T) {
	list := []SnapshotInfo{
		{Name: "daily/mon", CreatedUnix: 1754600000, LogicalBytes: 1 << 30, Chunks: 12345},
		{Name: "x", CreatedUnix: 1, LogicalBytes: 2, Chunks: 3},
	}
	got, err := ParseSnapshotList(AppendSnapshotList(nil, list))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(list) {
		t.Fatalf("len = %d, want %d", len(got), len(list))
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], list[i])
		}
	}
}

func TestTenantUsageRoundTrip(t *testing.T) {
	in := TenantUsage{
		Tenant: "bob", Snapshots: 4,
		LogicalBytes: 10, StoredBytes: 20,
		ExclusiveChunks: 30, ExclusiveBytes: 40,
		SharedChunks: 50, SharedBytes: 60,
	}
	got, err := ParseTenantUsage(AppendTenantUsage(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := ParseError(AppendError(nil, CodeNotFound, "no such snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeNotFound || e.Msg != "no such snapshot" {
		t.Fatalf("got %+v", e)
	}
	// Overlong messages truncate instead of failing the error path.
	long := string(bytes.Repeat([]byte{'x'}, 1000))
	if e, err = ParseError(AppendError(nil, CodeInternal, long)); err != nil {
		t.Fatal(err)
	}
	if len(e.Msg) != MaxName {
		t.Fatalf("len(msg) = %d, want %d", len(e.Msg), MaxName)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	p := AppendSeq(nil, 1)
	p = append(p, 0xee)
	if _, err := ParseSeq(p); err == nil {
		t.Error("trailing bytes accepted")
	}
}
