package tracelog

import (
	"io"
	"path/filepath"
	"testing"

	"freqdedup/internal/trace"
	"freqdedup/internal/vfs"
)

// benchRefs is one backup's worth of observation windows: 64 windows of
// 1024 refs (the backup pipeline's upload window size), 768 KiB of trace
// payload.
func benchRefs() [][]trace.ChunkRef {
	out := make([][]trace.ChunkRef, 64)
	for w := range out {
		out[w] = testRefsBench(w, 1024)
	}
	return out
}

func testRefsBench(seed, n int) []trace.ChunkRef {
	refs := make([]trace.ChunkRef, n)
	for i := range refs {
		refs[i] = trace.ChunkRef{
			FP:   [8]byte{byte(seed), byte(i), byte(i >> 8), 1, 2, 3, 4, 5},
			Size: uint32(4096 + i%4096),
		}
	}
	return refs
}

// BenchmarkTraceLogIngest measures the observer's write path: one
// committed backup trace per op (64 windows appended, one fsync at
// commit), reporting trace-payload MB/s.
func BenchmarkTraceLogIngest(b *testing.B) {
	windows := benchRefs()
	var payload int64
	for _, w := range windows {
		payload += int64(len(w) * refLen)
	}
	l, err := CreateFS(vfs.OS, filepath.Join(b.TempDir(), LogName))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := l.Begin("bench")
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range windows {
			if err := s.ObserveUpload(w); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLogReplay measures the streaming read path: one full
// CRC-verified replay of a committed trace per op.
func BenchmarkTraceLogReplay(b *testing.B) {
	windows := benchRefs()
	l, err := CreateFS(vfs.OS, filepath.Join(b.TempDir(), LogName))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s, err := l.Begin("bench")
	if err != nil {
		b.Fatal(err)
	}
	var payload int64
	for _, w := range windows {
		if err := s.ObserveUpload(w); err != nil {
			b.Fatal(err)
		}
		payload += int64(len(w) * refLen)
	}
	if err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	tr := l.Backups()[0]
	buf := make([]trace.ChunkRef, 4096)
	b.SetBytes(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tr.Open()
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := r.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}
