package main

// metricDef is one named metric of the benchmark; README.md defines each.
// The lists below and BENCHMARK.json must agree; bench_test.go compares
// them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen
}

// MB and GB are decimal (1e6, 1e9 bytes) everywhere in this benchmark.
const (
	mb = 1e6
	gb = 1e9
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; none can be zero. The wall-clock and CPU
// bounds are the contract's widest: this sandbox moves between speed
// regimes ~20 % apart for minutes at a time (README, "Noise").
var endToEnd = []metricDef{
	{"backup_mbps", "MB/s", "higher", 0.25},
	{"restore_mbps", "MB/s", "higher", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"alloc_ratio", "B/B", "lower", 0.10},
	{"stored_ratio", "B/B", "lower", 0.02},
	{"round_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, taken in the traced pass.
// A layer that a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "chunker.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunker.chunks", Unit: "count", Better: "lower"},
	{Name: "fphash.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "mle.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "dedup.put_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "dedup.dup_share", Unit: "ratio", Better: "higher"},
	{Name: "dedup.contains_ns", Unit: "ns", Better: "lower"},
	{Name: "vfs.write_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.writes", Unit: "count", Better: "lower"},
	{Name: "vfs.syncs", Unit: "count", Better: "lower"},
	{Name: "vfs.sync_s", Unit: "s", Better: "lower"},
	{Name: "vfs.read_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.reads", Unit: "count", Better: "lower"},
	{Name: "vfs.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "vfs.read_amp", Unit: "B/B", Better: "lower"},
	{Name: "repo.backup_s", Unit: "s", Better: "lower"},
	{Name: "repo.restore_s", Unit: "s", Better: "lower"},
	{Name: "repo.open_ms", Unit: "ms", Better: "lower"},
	{Name: "repo.close_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.rx_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.tx_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.reads", Unit: "count", Better: "lower"},
	{Name: "wire.writes", Unit: "count", Better: "lower"},
	{Name: "wire.codec_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "server.session_s", Unit: "s", Better: "lower"},
	{Name: "server.miss_share", Unit: "ratio", Better: "lower"},
	{Name: "tracelog.bytes", Unit: "B", Better: "lower"},
	{Name: "tracelog.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "defense.encrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "attack.run_s.mle", Unit: "s", Better: "lower"},
	{Name: "attack.run_s.combined", Unit: "s", Better: "lower"},
	{Name: "attack.inferred_pct.mle", Unit: "%", Better: "lower"},
	{Name: "attack.inferred_pct.combined", Unit: "%", Better: "lower"},
	{Name: "attack.pairs", Unit: "count", Better: "lower"},
	{Name: "attack.kchunks_per_s", Unit: "kchunks/s", Better: "higher"},
	{Name: "accounted_share", Unit: "ratio", Better: "higher"},
	{Name: "traced.backup_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "traced.restore_mbps", Unit: "MB/s", Better: "higher"},
}
