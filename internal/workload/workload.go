package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"freqdedup/internal/trace"
)

// Config carries the scenario-independent generation knobs. The zero value
// selects laptop-scale defaults; withDefaults fills and validates them.
// Factories may set their own defaults for zero knobs (the database and
// vm workloads default to fixed-size chunks; fsl, synthetic and vm to
// the paper's laptop-scale user counts, backup counts and sizes), but
// every factory honors Seed/Rng, Backups, and TotalBytes.
type Config struct {
	// Seed seeds the generator's private random stream.
	Seed int64
	// Rng optionally injects the random source; it takes precedence over
	// Seed and lets a caller thread one randomness stream through several
	// generations. A *rand.Rand is not safe for concurrent use, so
	// concurrent generators need distinct Rng values (or Seeds).
	Rng *rand.Rand
	// Backups is the total number of backup generations, including the
	// initial one (default 6).
	Backups int
	// TotalBytes is the approximate logical size of the initial backup
	// across all users (default 24 MiB).
	TotalBytes int
	// MeanObjectBytes is the mean generated file/blob size (default 96 KiB).
	MeanObjectBytes int
	// Users is the number of parallel user streams; backup generation t is
	// the concatenation of every user's stream at time t. Zero keeps the
	// factory's own default (most single-stream scenarios use 1).
	Users int
	// Chunk is the chunk-size model. Zero keeps the factory's default
	// (the paper's 8 KB-average variable model for most scenarios).
	Chunk trace.ChunkSizeModel
}

// withDefaults fills unset knobs with laptop-scale defaults and validates
// the result.
func (c Config) withDefaults() (Config, error) {
	if c.Backups == 0 {
		c.Backups = 6
	}
	if c.Backups < 1 {
		return c, fmt.Errorf("workload: backup count %d < 1", c.Backups)
	}
	if c.TotalBytes == 0 {
		c.TotalBytes = 24 << 20
	}
	if c.TotalBytes < 1<<12 {
		return c, fmt.Errorf("workload: total size %d below one chunk (4096)", c.TotalBytes)
	}
	if c.MeanObjectBytes == 0 {
		c.MeanObjectBytes = 96 << 10
	}
	if c.MeanObjectBytes < 1<<10 {
		return c, fmt.Errorf("workload: mean object size %d below 1024", c.MeanObjectBytes)
	}
	if c.Users == 0 {
		c.Users = 1
	}
	if c.Users < 1 || c.Users > 256 {
		return c, fmt.Errorf("workload: user count %d out of range [1, 256]", c.Users)
	}
	if c.Chunk == (trace.ChunkSizeModel{}) {
		c.Chunk = trace.ChunkSizeModel{Min: 2048, Avg: 8192, Max: 16384, Quantum: 512}
	}
	if c.Chunk.Min < 1 || c.Chunk.Min > c.Chunk.Avg || c.Chunk.Avg > c.Chunk.Max {
		return c, fmt.Errorf("workload: chunk size model %+v not ordered 0 < Min <= Avg <= Max", c.Chunk)
	}
	return c, nil
}

// rng returns the configured random source: the injected Rng, or a fresh
// stream seeded from Seed.
func (c Config) rng() *rand.Rand {
	if c.Rng != nil {
		return c.Rng
	}
	return rand.New(rand.NewSource(c.Seed))
}

// Source generates one dataset. Sources returned by a Factory are
// single-use: Generate consumes the Config's randomness stream.
type Source interface {
	Generate() (*trace.Dataset, error)
}

// Factory builds a Source for one Config.
type Factory func(cfg Config) (Source, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a named generator factory to the registry. Registering an
// empty name, a nil factory, or a name twice panics: registration runs
// from init functions, where a conflict is a programming error.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("workload: Register with empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: generator %q registered twice", name))
	}
	registry[name] = f
}

// Lookup resolves a registered generator factory. The error of an unknown
// name lists every available workload.
func Lookup(name string) (Factory, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (available: %s)",
			name, strings.Join(List(), ", "))
	}
	return f, nil
}

// List returns the registered workload names, sorted.
func List() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Generate looks up the named workload and generates its dataset.
func Generate(name string, cfg Config) (*trace.Dataset, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	src, err := f(cfg)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	d, err := src.Generate()
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	return d, nil
}

// Modifier is one composable transformation applied to the working state
// between backup generations. See the package documentation for the
// composition contract.
type Modifier interface {
	// Name identifies the modifier in diagnostics.
	Name() string
	// Apply advances the state from generation gen-1 to gen. All
	// randomness comes from st.Rng.
	Apply(st *State, gen int)
}

// Generator is the modifier-chain Source: an initial-state constructor
// plus an ordered modifier list applied once per generation.
type Generator struct {
	name string
	cfg  Config
	init func(st *State)
	mods []Modifier
}

// NewGenerator validates cfg and assembles a modifier-chain generator.
func NewGenerator(name string, cfg Config, init func(st *State), mods ...Modifier) (*Generator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if init == nil {
		return nil, fmt.Errorf("workload: generator %q has no initial-state constructor", name)
	}
	return &Generator{name: name, cfg: cfg, init: init, mods: mods}, nil
}

// Modifiers returns the names of the generator's modifier chain, in
// application order.
func (g *Generator) Modifiers() []string {
	out := make([]string, len(g.mods))
	for i, m := range g.mods {
		out[i] = m.Name()
	}
	return out
}

// Generate builds the dataset: generation 0 from the initial state, then
// one application of the full modifier chain per further generation.
func (g *Generator) Generate() (*trace.Dataset, error) {
	st := newState(g.cfg)
	g.init(st)
	d := &trace.Dataset{Name: g.name}
	d.Backups = append(d.Backups, st.Snapshot("0"))
	for gen := 1; gen < g.cfg.Backups; gen++ {
		for _, m := range g.mods {
			m.Apply(st, gen)
		}
		d.Backups = append(d.Backups, st.Snapshot(fmt.Sprintf("%d", gen)))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
