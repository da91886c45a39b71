package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestRestoreWriterFraming: whatever sizes Restore writes in — single
// bytes, chunk-sized pieces, exactly a frame and one byte either side of
// it, MiB-scale slabs — every frame but the last is restoreFrameBytes, none
// is larger, and the frames concatenate to the bytes written, in order,
// with total counting them.
func TestRestoreWriterFraming(t *testing.T) {
	for _, size := range []int{1, 8 << 10, restoreFrameBytes - 1, restoreFrameBytes, restoreFrameBytes + 1, 3 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			want := make([]byte, 3*restoreFrameBytes+12345)
			if size > len(want)/3 {
				want = make([]byte, 3*size+12345)
			}
			rand.New(rand.NewSource(int64(size))).Read(want)
			var got []byte
			var frames []int
			w := &restoreWriter{sendFrame: func(p []byte) error {
				frames = append(frames, len(p))
				got = append(got, p...)
				return nil
			}}
			for off := 0; off < len(want); off += size {
				end := min(off+size, len(want))
				if n, err := w.Write(want[off:end]); n != end-off || err != nil {
					t.Fatalf("Write = %d, %v", n, err)
				}
			}
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
			for i, n := range frames {
				if n > restoreFrameBytes || (i < len(frames)-1 && n != restoreFrameBytes) {
					t.Fatalf("frame %d of %d is %d bytes (frame size %d)", i, len(frames), n, restoreFrameBytes)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatal("frames do not concatenate to the bytes written")
			}
			if w.total != uint64(len(want)) {
				t.Fatalf("total = %d, want %d", w.total, len(want))
			}
		})
	}
}

// TestRestoreWriterSendError: a failed frame fails the Write and marks the
// connection done.
func TestRestoreWriterSendError(t *testing.T) {
	boom := errors.New("boom")
	w := &restoreWriter{sendFrame: func([]byte) error { return boom }}
	if _, err := w.Write(make([]byte, restoreFrameBytes+1)); !errors.Is(err, boom) {
		t.Fatalf("Write err = %v, want boom", err)
	}
	if !w.failed {
		t.Fatal("failed not set after a send error")
	}
}
