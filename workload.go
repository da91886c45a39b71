package freqdedup

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"freqdedup/internal/eval"
	"freqdedup/internal/trace"
	"freqdedup/internal/tracelog"
	"freqdedup/internal/workload"
)

// Workload registry (internal/workload): named scenario generators whose
// datasets feed both the trace-level figure runners and, through
// ReplayRepositoryTaps, the full storage stack.
type (
	// WorkloadConfig carries the scenario-independent generation knobs
	// (seed, backup count, size, users, chunk model); its zero value
	// selects laptop-scale defaults.
	WorkloadConfig = workload.Config
	// WorkloadSource generates one dataset.
	WorkloadSource = workload.Source
	// WorkloadFactory builds a WorkloadSource from a WorkloadConfig.
	WorkloadFactory = workload.Factory
)

var (
	// Workloads lists the registered workload names, sorted.
	Workloads = workload.List
	// GenerateWorkload generates the named workload's dataset.
	GenerateWorkload = workload.Generate
	// LookupWorkload resolves a registered workload factory; the error of
	// an unknown name lists every available workload.
	LookupWorkload = workload.Lookup
	// RegisterWorkload adds a named generator to the registry (panics on
	// duplicates — call it from an init function).
	RegisterWorkload = workload.Register
	// WorkloadDataReader streams a backup's deterministic byte image, for
	// feeding generated workloads to Repository.Backup: equal fingerprints
	// expand to equal byte runs, so the generated duplication and locality
	// survive the repository's content-defined re-chunking.
	WorkloadDataReader = workload.DataReader
)

// Scenario matrix: every workload through the full pipeline.
type (
	// ScenarioOptions configures RunScenario and ScenarioMatrix.
	ScenarioOptions = eval.ScenarioOptions
	// ScenarioResult is one workload's trip through the pipeline.
	ScenarioResult = eval.ScenarioResult
	// TapPipeline routes a generated dataset through a storage stack and
	// returns the adversary's replayed view.
	TapPipeline = eval.TapPipeline
)

// ReplayRepositoryTaps is the real-stack TapPipeline: it materializes each
// generated backup's byte stream, backs it up into a throwaway file-backed
// Repository with the adversary tap enabled, then closes it and replays
// the durable trace log (traces.fdt) — returning the dataset an
// adversary reconstructs from upload observations alone. The repository
// encrypts convergently, so the replayed stream is a deterministic 1-1
// relabeling of the (re-chunked) plaintext stream: frequencies, sizes,
// and locality survive, which is exactly the paper's threat model.
func ReplayRepositoryTaps(d *trace.Dataset) (*trace.Dataset, error) {
	dir, err := os.MkdirTemp("", "freqdedup-scenario-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	repo, err := CreateRepository(dir, WithUploadObserver(nil))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i, b := range d.Backups {
		// Backup names must be unique within the repository; generated
		// labels need not be.
		name := snapshotName(i, b.Label)
		if _, err := repo.Backup(ctx, name, WorkloadDataReader(b)); err != nil {
			repo.Close()
			return nil, fmt.Errorf("freqdedup: backup %q: %w", name, err)
		}
	}
	if err := repo.Close(); err != nil {
		return nil, err
	}
	// Replay cold, from traces.fdt alone and without the key.
	out, err := tracelog.ReadDataset(OSFileSystem, filepath.Join(dir, tracelog.LogName))
	if err != nil {
		return nil, err
	}
	if len(out.Backups) != len(d.Backups) {
		return nil, fmt.Errorf("freqdedup: replayed %d taps, want %d", len(out.Backups), len(d.Backups))
	}
	out.Name = d.Name + "-tap"
	for i, b := range out.Backups {
		// Restore the generator's label: consumers key figures on it.
		b.Label = d.Backups[i].Label
	}
	return out, nil
}

// snapshotName builds the unique snapshot name of generated backup i:
// generated labels may repeat across backups, repository names must not.
func snapshotName(i int, label string) string {
	return fmt.Sprintf("%03d-%s", i, label)
}

// RunScenario drives one workload through the full pipeline — generation,
// Repository backup, upload-tap replay, locality attack against each
// defense scheme — and returns its inference rates. A nil opt.Pipeline
// defaults to ReplayRepositoryTaps; set it explicitly (or use
// eval.RunScenario) to attack generated chunk streams directly.
func RunScenario(name string, opt ScenarioOptions) (ScenarioResult, error) {
	if opt.Pipeline == nil {
		opt.Pipeline = ReplayRepositoryTaps
	}
	return eval.RunScenario(name, opt)
}

// ScenarioMatrix runs every selected workload through RunScenario's
// pipeline and assembles the per-scenario inference-rate figure: one row
// per workload, one column per defense scheme. A nil opt.Pipeline
// defaults to ReplayRepositoryTaps.
func ScenarioMatrix(opt ScenarioOptions) (*Figure, error) {
	if opt.Pipeline == nil {
		opt.Pipeline = ReplayRepositoryTaps
	}
	return eval.ScenarioMatrix(opt)
}
