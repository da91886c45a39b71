package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"freqdedup/internal/chunker"
	"freqdedup/internal/container"
	"freqdedup/internal/dedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/mle"
	"freqdedup/internal/segment"
	"freqdedup/internal/trace"
	"freqdedup/internal/wire"
)

// windowChunks is how many chunks one PutBatch, ContainsBatch or
// TChunkData frame of the replay carries.
const windowChunks = 256

// stageTotals accumulates the isolated stages over the timed snapshots.
type stageTotals struct {
	chunkTime, hashTime, encTime, putTime, containsTime, codecTime time.Duration
	chunkBytes, hashBytes, encBytes, putBytes, codecBytes          int64
	chunks, offered, dups, asked                                   int64
}

// replayStages runs the round's bytes through each layer's exported
// functions alone, one after another on one goroutine: chunk, fingerprint,
// encrypt, fingerprint the ciphertext, ask the index, put. The store is a
// MemBackend one: index and container append, no device. The untimed
// snapshots go through the same stages first, so the index holds what the
// repository's held when the timed backups started.
func (r *round) replayStages() error {
	store, err := dedup.NewStoreWithBackend(container.DefaultBytes, container.NewMemBackend(dedup.DefaultShards))
	if err != nil {
		return err
	}
	defer store.Close()
	var minhash *mle.MinHash
	if r.name == "defended-lab" {
		minhash = mle.NewMinHash(mle.NewLocalDeriver([]byte("bench stage replay secret")))
	}
	root := r.tr.begin("stages.replay", "", 0, laneStages)
	defer r.tr.end(root)

	var tot stageTotals
	for _, st := range r.in.Streams {
		for i, sn := range st.Snapshots {
			t := &tot
			if i < st.Prep {
				t = &stageTotals{} // replayed to fill the index, not reported
			}
			if err := r.replaySnapshot(store, minhash, root, st.Tenant+"/"+sn.Name, sn.Data, t); err != nil {
				return fmt.Errorf("%s/%s: %w", st.Tenant, sn.Name, err)
			}
		}
	}

	rate := func(n int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / mb / d.Seconds()
	}
	r.layer["chunker.mbps"] = rate(tot.chunkBytes, tot.chunkTime)
	r.layer["chunker.chunks"] = float64(tot.chunks)
	r.layer["fphash.mbps"] = rate(tot.hashBytes, tot.hashTime)
	r.layer["mle.mbps"] = rate(tot.encBytes, tot.encTime)
	r.layer["dedup.put_mbps"] = rate(tot.putBytes, tot.putTime)
	r.layer["dedup.dup_share"] = float64(tot.dups) / float64(tot.offered)
	r.layer["dedup.contains_ns"] = float64(tot.containsTime) / float64(tot.asked)
	r.layer["wire.codec_mbps"] = rate(tot.codecBytes, tot.codecTime)
	stages := tot.chunkTime + tot.hashTime + tot.encTime + tot.putTime + r.backupIO.SyncTime
	r.layer["accounted_share"] = stages.Seconds() / r.backup.wall.Seconds()
	return nil
}

// replaySnapshot takes one snapshot through the stages, adding to t.
func (r *round) replaySnapshot(store *dedup.Store, minhash *mle.MinHash, parent int, req string, data []byte, t *stageTotals) error {
	stage := func(name string, fn func() error) (time.Duration, error) {
		id := r.tr.begin(name, req, parent, laneStages)
		err := fn()
		return r.tr.end(id), err
	}

	// chunker: cut points only; the chunks are views of data.
	params := chunker.DefaultParams()
	params.DeferFingerprint = true
	var plain [][]byte
	d, err := stage("chunker.next", func() error {
		c, err := chunker.New(bytes.NewReader(data), params)
		if err != nil {
			return err
		}
		off := 0
		for {
			ch, err := c.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			n := ch.Size()
			ch.Release()
			plain = append(plain, data[off:off+n])
			off += n
		}
	})
	if err != nil {
		return err
	}
	t.chunkTime += d
	t.chunkBytes += int64(len(data))
	t.chunks += int64(len(plain))

	// fphash: plaintext fingerprints (the recipe's, and MinHash's input).
	refs := make([]trace.ChunkRef, len(plain))
	d, _ = stage("fphash.plain", func() error {
		for i, p := range plain {
			refs[i] = trace.ChunkRef{FP: fphash.FromBytes(p), Size: uint32(len(p))}
		}
		return nil
	})
	t.hashTime += d
	t.hashBytes += int64(len(data))

	// mle: per-chunk convergent encryption, or per-segment MinHash.
	cipher := make([][]byte, 0, len(plain))
	if minhash == nil {
		d, _ = stage("mle.convergent", func() error {
			for _, p := range plain {
				cipher = append(cipher, mle.EncryptDeterministic(mle.ConvergentKey(p), p))
			}
			return nil
		})
	} else {
		segs, err := segment.Split(refs, segment.DefaultParams())
		if err != nil {
			return err
		}
		d, err = stage("mle.minhash", func() error {
			for _, s := range segs {
				out, _, err := minhash.EncryptSegment(plain[s.Start:s.End])
				if err != nil {
					return err
				}
				cipher = append(cipher, out...)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.encTime += d
	t.encBytes += int64(len(data))

	// fphash again: the ciphertext fingerprints the store is keyed by.
	batch := make([]dedup.PutChunk, len(cipher))
	d, _ = stage("fphash.cipher", func() error {
		for i, c := range cipher {
			batch[i] = dedup.PutChunk{FP: fphash.FromBytes(c), Data: c}
		}
		return nil
	})
	t.hashTime += d
	t.hashBytes += int64(len(data))

	// dedup: ask, then put, one window at a time as the pipelines do.
	fps := make([]fphash.Fingerprint, len(batch))
	for i, c := range batch {
		fps[i] = c.FP
	}
	d, _ = stage("dedup.contains", func() error {
		var miss []bool
		for lo := 0; lo < len(fps); lo += windowChunks {
			miss = store.ContainsBatch(fps[lo:min(lo+windowChunks, len(fps))], miss)
		}
		return nil
	})
	t.containsTime += d
	t.asked += int64(len(fps))
	d, err = stage("dedup.put", func() error {
		for lo := 0; lo < len(batch); lo += windowChunks {
			dups, err := store.PutBatch(batch[lo:min(lo+windowChunks, len(batch))])
			if err != nil {
				return err
			}
			for _, dup := range dups {
				if dup {
					t.dups++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.putTime += d
	t.putBytes += int64(len(data))
	t.offered += int64(len(batch))

	if r.name != "remote-mix" {
		return nil
	}
	d, err = stage("wire.codec", func() error { return codecRoundTrip(cipher) })
	if err != nil {
		return err
	}
	t.codecTime += d
	t.codecBytes += int64(len(data))
	return nil
}

// codecRoundTrip sends the ciphertexts as TChunkData frames over an
// in-process pipe and parses them on the other side.
func codecRoundTrip(cipher [][]byte) error {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	frames := (len(cipher) + windowChunks - 1) / windowChunks
	recvErr := make(chan error, 1)
	go func() {
		conn := wire.NewConn(b)
		var chunks [][]byte
		for i := 0; i < frames; i++ {
			typ, payload, err := conn.Recv()
			if err == nil && typ != wire.TChunkData {
				err = fmt.Errorf("frame type %d, want TChunkData", typ)
			}
			if err == nil {
				_, chunks, err = wire.ParseChunkData(payload, chunks)
			}
			if err != nil {
				b.Close() // unblocks a sender stuck in Write
				recvErr <- err
				return
			}
		}
		recvErr <- nil
	}()
	conn := wire.NewConn(a)
	var payload []byte
	var sendErr error
	for i := 0; i < frames && sendErr == nil; i++ {
		lo := i * windowChunks
		payload = wire.AppendChunkData(payload[:0], uint32(i), cipher[lo:min(lo+windowChunks, len(cipher))])
		sendErr = conn.Send(wire.TChunkData, payload)
	}
	if sendErr != nil {
		a.Close() // unblocks a receiver stuck in Read
	}
	return errors.Join(sendErr, <-recvErr)
}
