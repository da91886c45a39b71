package dedup

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"freqdedup/internal/bufpool"
	"freqdedup/internal/chunker"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
)

// observerFunc adapts a function to UploadObserver.
type observerFunc func(refs []trace.ChunkRef) error

func (f observerFunc) ObserveUpload(refs []trace.ChunkRef) error { return f(refs) }

// TestDefendedBackupResidencyBounded: a MinHash + scramble backup holds a
// bounded number of plaintext chunks whatever the stream length — the
// producer's queue and batch in hand, one gather, and one open segment. The observer runs
// before a window's buffers are released, so sampling the chunker pool
// there sees the pipeline at its fullest.
func TestDefendedBackupResidencyBounded(t *testing.T) {
	cfg := Config{
		Chunking:     chunker.DefaultParams(),
		Encryption:   EncMinHash,
		Deriver:      mle.NewLocalDeriver([]byte("residency")),
		Segments:     segment.Params{MinBytes: 128 << 10, AvgBytes: 256 << 10, MaxBytes: 512 << 10},
		Scramble:     true,
		ScrambleSeed: 11,
		Workers:      2,
	}
	// + the batch the producer holds while the queue is full (the serial
	// chunker pools nothing else).
	bound := int64(chunkQueueDepth + chunkBatch + uploadWindowChunks + cfg.Segments.MaxBytes/cfg.Chunking.Min)
	sizes := []int64{16 << 20, 64 << 20}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		baseline := bufpool.Outstanding()
		var peak int64
		var uploaded int
		cfg.Observer = observerFunc(func(refs []trace.ChunkRef) error {
			uploaded += len(refs)
			// Less the chunker's lookahead, which the count includes.
			if held := bufpool.Outstanding().Bufs - baseline.Bufs - 1; held > peak {
				peak = held
			}
			return nil
		})
		client, err := NewClient(NewStore(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := io.LimitReader(rand.New(rand.NewSource(size)), size)
		recipe, err := client.Backup(src)
		if err != nil {
			t.Fatal(err)
		}
		if uploaded != len(recipe.Entries) || int64(uploaded) <= bound {
			t.Fatalf("%d MiB: observed %d uploads of %d chunks; the stream must exceed the bound of %d",
				size>>20, uploaded, len(recipe.Entries), bound)
		}
		if peak > bound {
			t.Fatalf("%d MiB: %d plaintext chunks resident at once, bound %d", size>>20, peak, bound)
		}
		t.Logf("%d MiB, %d chunks: peak %d resident (bound %d)", size>>20, uploaded, peak, bound)
		waitForBufs(t, baseline)
	}
}

// TestSegmentStageIndependentOfGathers: recipe, physical store layout and
// upload order of a MinHash + scramble backup equal the serial reference's
// — which chunks the whole stream, then segments it — at every worker
// count and when the reader fragments, with many segments per gather and
// with segments longer than a gather. Where the gathers and upload windows
// fall must not show in the result.
func TestSegmentStageIndependentOfGathers(t *testing.T) {
	const containerBytes = 64 << 10
	data := randData(77, 10<<20) // one full gather and a partial one
	for _, tc := range []struct {
		name string
		segs segment.Params
	}{
		{"many-segments-per-gather", segment.Params{MinBytes: 128 << 10, AvgBytes: 256 << 10, MaxBytes: 512 << 10}},
		{"segment-longer-than-a-gather", segment.Params{MinBytes: 9 << 20, AvgBytes: 10 << 20, MaxBytes: 11 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Chunking:     chunker.DefaultParams(),
				Encryption:   EncMinHash,
				Deriver:      mle.NewLocalDeriver([]byte("gathers")),
				Segments:     tc.segs,
				Scramble:     true,
				ScrambleSeed: 9,
			}
			ref := newRefStore(containerBytes)
			refRecipe := refBackup(t, ref, base, data, rand.New(rand.NewSource(base.ScrambleSeed)))

			for _, run := range []struct {
				workers  int
				fragment bool
			}{{1, false}, {3, false}, {0, false}, {3, true}} {
				cfg := base
				cfg.Workers = run.workers
				var order []fphash.Fingerprint
				cfg.Observer = observerFunc(func(refs []trace.ChunkRef) error {
					for _, r := range refs {
						order = append(order, r.FP)
					}
					return nil
				})
				store := NewStoreWithShards(containerBytes, 1)
				client, err := NewClient(store, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var src io.Reader = bytes.NewReader(data)
				if run.fragment {
					src = &slowReader{data: data, max: 5000}
				}
				recipe, err := client.Backup(src)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recipe, refRecipe) {
					t.Fatalf("%+v: recipe differs from the serial reference", run)
				}
				if !reflect.DeepEqual(order, ref.order) {
					t.Fatalf("%+v: upload order differs from the serial reference", run)
				}
				sameLayout(t, store.shards[0].containers, ref.containers)
			}
		})
	}
}

// meanChunkBytes chunks data the way Backup does and returns the stream's
// mean chunk size.
func meanChunkBytes(t *testing.T, data []byte) int {
	t.Helper()
	cdc, err := chunker.NewContentDefined(bytes.NewReader(data), chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunker.All(cdc)
	if err != nil {
		t.Fatal(err)
	}
	return len(data) / len(chunks)
}

// TestDefendedDedupSurvivesMeanChunkSizeDrift: the segment divisor comes
// from configuration, not from the stream. Two generations differ by a 1 %
// edit, and the segment sizes are picked so that a divisor computed from
// each generation's measured mean chunk size would differ by one — which
// moves every segment boundary and re-keys most of the unchanged data.
// With the divisor fixed by Chunking.Avg the second generation stores
// little more than the segments the edit touches.
func TestDefendedDedupSurvivesMeanChunkSizeDrift(t *testing.T) {
	genA := randData(91, 8<<20)
	at, cut := 3<<20, 80<<10
	genB := append(append(append([]byte(nil), genA[:at]...), randData(92, cut+cut/4)...), genA[at+cut:]...)

	meanA, meanB := meanChunkBytes(t, genA), meanChunkBytes(t, genB)
	big := meanA
	if meanB > big {
		big = meanB
	}
	// span/big = 31 and span/small >= 32 whenever the two means differ.
	span := 32*big - 1
	segs := segment.Params{MinBytes: 256 << 10, AvgBytes: 256<<10 + span, MaxBytes: 2 * (256<<10 + span)}
	if segment.Divisor(segs, meanA) == segment.Divisor(segs, meanB) {
		t.Fatalf("fixture: mean chunk sizes %d and %d do not straddle a divisor step", meanA, meanB)
	}

	store := NewStore(0)
	client, err := NewClient(store, Config{
		Encryption:   EncMinHash,
		Deriver:      mle.NewLocalDeriver([]byte("drift")),
		Segments:     segs,
		Scramble:     true,
		ScrambleSeed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Backup(bytes.NewReader(genA)); err != nil {
		t.Fatal(err)
	}
	before := store.Stats().PhysicalBytes
	if _, err := client.Backup(bytes.NewReader(genB)); err != nil {
		t.Fatal(err)
	}
	added := store.Stats().PhysicalBytes - before
	// The edit lands in one or two ~0.5 MiB segments of sixteen.
	if limit := uint64(len(genB) / 5); added > limit {
		t.Fatalf("second generation stored %d new bytes of %d (limit %d): unchanged segments were re-keyed",
			added, len(genB), limit)
	}
	t.Logf("second generation stored %d new bytes of %d", added, len(genB))
}
