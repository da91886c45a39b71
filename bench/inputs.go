package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"

	"freqdedup"
	"freqdedup/internal/fphash"
	"freqdedup/internal/trace"
)

// Workload sizes. They are fixed here and never taken from flags; the
// tests divide them by a scale factor. The issue's sizes (64 MiB
// snapshots, a 3 x 512 MiB attack trace) gave 5 s rounds; the contract's
// run budget (92 runs inside 3420 s, each run's spread within a third of
// its bound) needs many rounds per run, so bytes were cut 4x and rounds
// are counted by the clock.
const (
	localSnapshotBytes  = 16 << 20 // local-full, local-incr, defended-lab
	localFullSnapshots  = 4
	incrGenerations     = 5 // generation 0 is set-up, 1-4 are timed
	remoteTenants       = 2
	remoteGenerations   = 4
	remoteSnapshotBytes = 8 << 20 // tenant 0; see remoteTenantStep
	attackBackups       = 3
	attackBackupBytes   = 256 << 20
)

// remoteTenantStep is how much smaller each further tenant's snapshots
// are. The store seals every open container when any session commits;
// tenants of equal size commit together or apart by a coin flip per round,
// the containers come out in one of several layouts, and restore_mbps and
// alloc_ratio jump between modes (alloc_ratio 13, 17, 20 or 22 B/B, round
// by round). Unequal tenants commit apart every time.
const remoteTenantStep = 2 << 20

// The generated workloads' shape (which chunks repeat, where, and how
// large they are) and their generation 0 come from fixed generator seeds:
// the file server is the same one on every run. --seed decides the bytes
// of everything written after generation 0, by relabelling every chunk
// that generation 0 does not hold. Seeding the shape or the base as well
// made the spread between seeds the generator's churn, MinHash's key
// divergence (+-10 % of stored_ratio) and re-chunking's edge effects, not
// the system's noise, and no bound below that could be checked.
const (
	incrShapeSeed   = 11
	remoteShapeSeed = 21 // tenant t uses remoteShapeSeed+t
	attackShapeSeed = 31
)

// defendedContentSeed fixes defended-lab's bytes: they are local-incr's at
// --seed 1, whatever the seed. MinHash encryption places segment
// boundaries by a divisor computed from the whole stream's mean chunk
// size, so a small change of content can move every boundary of a
// generation and stored_ratio jumps (0.32 to 0.47 over ten seeds). On this
// workload --seed is the scrambling seed and the seed of the attack's
// leaked sample instead.
const defendedContentSeed = 1

// snapshot is one materialised backup input.
type snapshot struct {
	Name string
	Data []byte
	Sum  [sha256.Size]byte
}

func newSnapshot(name string, data []byte) snapshot {
	return snapshot{Name: name, Data: data, Sum: sha256.Sum256(data)}
}

// stream is one client's snapshots: the first Prep are backed up untimed
// in the round's set-up, the rest are timed, and the last is restored.
type stream struct {
	Tenant    string
	Prep      int
	Snapshots []snapshot
}

func (s stream) timed() []snapshot { return s.Snapshots[s.Prep:] }

// inputs is everything a workload's rounds read, built from the seed
// before any clock starts.
type inputs struct {
	Streams []stream
	// Attack is defended-lab's trace-only dataset (nil elsewhere):
	// auxiliary = Backups[n-2], target = Backups[n-1].
	Attack *trace.Dataset
}

// randomSnapshots returns n snapshots of never-repeating seeded bytes.
func randomSnapshots(seed int64, n, size int) []snapshot {
	rng := rand.New(rand.NewSource(seed))
	out := make([]snapshot, n)
	for i := range out {
		data := make([]byte, size)
		rng.Read(data) // math/rand's Read never fails
		out[i] = newSnapshot(fmt.Sprintf("full-%d", i), data)
	}
	return out
}

// relabel maps the fingerprint of every chunk written after generation 0
// through a seed-keyed bijection, so the duplication structure is kept
// exactly and WorkloadDataReader expands those chunks to different bytes
// for every seed.
func relabel(d *trace.Dataset, seed int64) {
	base := make(map[fphash.Fingerprint]struct{}, len(d.Backups[0].Chunks))
	for _, c := range d.Backups[0].Chunks {
		base[c.FP] = struct{}{}
	}
	for _, b := range d.Backups[1:] {
		for i, c := range b.Chunks {
			if _, ok := base[c.FP]; !ok {
				b.Chunks[i].FP = fphash.FromUint64(c.FP.Mix(uint64(seed)))
			}
		}
	}
}

// fileserver generates the "fileserver" scenario with a fixed shape and
// seed-dependent content.
func fileserver(shapeSeed, seed int64, backups, totalBytes int) (*trace.Dataset, error) {
	d, err := freqdedup.GenerateWorkload("fileserver", freqdedup.WorkloadConfig{
		Seed: shapeSeed, Backups: backups, TotalBytes: totalBytes,
	})
	if err != nil {
		return nil, err
	}
	relabel(d, seed)
	return d, nil
}

// fileserverSnapshots materialises every generation into memory:
// WorkloadDataReader expands ~90 MB/s and must not sit inside a timed
// Backup.
func fileserverSnapshots(shapeSeed, seed int64, backups, totalBytes int) ([]snapshot, error) {
	d, err := fileserver(shapeSeed, seed, backups, totalBytes)
	if err != nil {
		return nil, err
	}
	out := make([]snapshot, len(d.Backups))
	for i, b := range d.Backups {
		data, err := io.ReadAll(freqdedup.WorkloadDataReader(b))
		if err != nil {
			return nil, err
		}
		out[i] = newSnapshot(fmt.Sprintf("gen-%d", i), data)
	}
	return out, nil
}

// buildInputs makes the named workload's inputs from seed. scale divides
// every size (1 in the benchmark, larger in tests).
func buildInputs(name string, seed int64, scale int) (*inputs, error) {
	switch name {
	case "local-full":
		return &inputs{Streams: []stream{{
			Tenant:    "local",
			Snapshots: randomSnapshots(seed, localFullSnapshots, localSnapshotBytes/scale),
		}}}, nil
	case "local-incr", "defended-lab":
		if name == "defended-lab" {
			seed = defendedContentSeed
		}
		snaps, err := fileserverSnapshots(incrShapeSeed, seed, incrGenerations, localSnapshotBytes/scale)
		if err != nil {
			return nil, err
		}
		in := &inputs{Streams: []stream{{Tenant: "local", Prep: 1, Snapshots: snaps}}}
		if name == "defended-lab" {
			in.Attack, err = fileserver(attackShapeSeed, seed, attackBackups, attackBackupBytes/scale)
			if err != nil {
				return nil, err
			}
		}
		return in, nil
	case "remote-mix":
		in := &inputs{}
		for t := 0; t < remoteTenants; t++ {
			snaps, err := fileserverSnapshots(remoteShapeSeed+int64(t), seed, remoteGenerations, (remoteSnapshotBytes-t*remoteTenantStep)/scale)
			if err != nil {
				return nil, err
			}
			in.Streams = append(in.Streams, stream{Tenant: fmt.Sprintf("tenant%d", t), Snapshots: snaps})
		}
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
