package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
)

// slowReader trickles data in small fragments, keeping the streaming
// producer goroutine alive across many channel handoffs.
type slowReader struct {
	data []byte
	max  int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := s.max
	if n > len(p) {
		n = len(p)
	}
	if n > len(s.data) {
		n = len(s.data)
	}
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// failAfterReader returns data until the budget is spent, then errors —
// exercising mid-stream failure of the producer goroutine.
type failAfterReader struct {
	data   []byte
	budget int
	err    error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, f.err
	}
	n := len(p)
	if n > f.budget {
		n = f.budget
	}
	if n > len(f.data) {
		n = len(f.data)
	}
	copy(p, f.data[:n])
	f.budget -= n
	return n, nil
}

// TestStreamingBackupMatchesPlannedResults: the pipeline must produce the
// same recipe and store contents from a fragmented read at several worker
// counts, with and without the segment stage, and restore bit-for-bit (the
// name predates the single pipeline). Run under -race: the
// producer goroutine, the encrypt fan-out, and the consumer all touch the
// pipeline concurrently.
func TestStreamingBackupMatchesPlannedResults(t *testing.T) {
	data := randData(17, 6<<20) // several upload windows plus a partial one
	var wantRecipe *mle.Recipe
	for i, workers := range []int{1, 3, 0} {
		store := NewStoreWithShards(64<<10, 1)
		client, err := NewClient(store, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		recipe, err := client.Backup(&slowReader{data: data, max: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantRecipe = recipe
		} else if !reflect.DeepEqual(recipe, wantRecipe) {
			t.Fatalf("workers=%d: streaming recipe differs", workers)
		}
		var out bytes.Buffer
		if err := client.Restore(recipe, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("workers=%d: restore mismatch", workers)
		}
	}

	// Scramble adds the segment stage; scrambling reorders uploads, not
	// recipe entries, so the scrambled recipe must match the unscrambled
	// one bit for bit.
	store := NewStoreWithShards(64<<10, 1)
	client, err := NewClient(store, Config{Workers: 2, Scramble: true, ScrambleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := client.Backup(&slowReader{data: data, max: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recipe, wantRecipe) {
		t.Fatal("scrambled recipe differs from unscrambled recipe")
	}
	var out bytes.Buffer
	if err := client.Restore(recipe, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("scrambled backup restore mismatch")
	}
}

// TestStreamingBackupEmptyStream: the empty stream yields an empty recipe,
// with and without the segment stage.
func TestStreamingBackupEmptyStream(t *testing.T) {
	for _, cfg := range []Config{{}, {Scramble: true}} {
		client, err := NewClient(NewStore(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		recipe, err := client.Backup(bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(recipe.Entries) != 0 {
			t.Fatalf("scramble=%v: empty stream produced %d entries", cfg.Scramble, len(recipe.Entries))
		}
	}
}

// TestStreamingBackupReadErrorMidStream: a reader failing mid-stream must
// surface the error and must not wedge the producer goroutine (the test
// finishing at all, under -race, is the real assertion).
func TestStreamingBackupReadErrorMidStream(t *testing.T) {
	boom := errors.New("disk detached")
	for _, workers := range []int{1, 4} {
		client, err := NewClient(NewStore(0), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.Backup(&failAfterReader{
			data:   randData(3, 8<<20),
			budget: 3 << 20,
			err:    boom,
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Backup err = %v, want wrapped boom", workers, err)
		}
	}
}

// TestStreamingBackupEncryptErrorAbandonsProducer: an encrypt-stage failure
// returns while the producer may still be mid-stream; the done channel must
// release it rather than leak it blocked on a full chunk channel.
func TestStreamingBackupEncryptErrorAbandonsProducer(t *testing.T) {
	boom := fmt.Errorf("deriver down")
	var calls int
	var mu sync.Mutex
	client, err := NewClient(NewStore(0), Config{
		Encryption: EncServerAided,
		Deriver: mle.KeyDeriverFunc(func(fphash.Fingerprint) (mle.Key, error) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n > 10 {
				return mle.Key{}, boom
			}
			return mle.Key{1}, nil
		}),
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 32 MiB: far more chunks than chunkQueueDepth + one window, so the
	// producer is guaranteed to outlive the first failing flush.
	if _, err := client.Backup(&slowReader{data: randData(5, 32<<20), max: 256 << 10}); !errors.Is(err, boom) {
		t.Fatalf("Backup err = %v, want deriver error", err)
	}
}

// TestServerAidedStreamingMatchesBuffered: deferred plaintext
// fingerprinting must derive the same keys the eager path derived — the
// recipe keys are a function of the plaintext fingerprint.
func TestServerAidedStreamingMatchesBuffered(t *testing.T) {
	data := randData(23, 2<<20)
	deriver := mle.NewLocalDeriver([]byte("secret"))
	var want *mle.Recipe
	for i, workers := range []int{1, 4} {
		store := NewStoreWithShards(0, 1)
		client, err := NewClient(store, Config{Encryption: EncServerAided, Deriver: deriver, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		recipe, err := client.Backup(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = recipe
			continue
		}
		if !reflect.DeepEqual(recipe, want) {
			t.Fatalf("workers=%d: server-aided recipe differs across worker counts", workers)
		}
	}
}
