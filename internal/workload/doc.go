// Package workload is the system's single source of backup workloads: a
// registry of named scenario generators whose output — a trace.Dataset of
// backup generations — feeds every consumer the same way, from trace-level
// figure runners to the full storage stack (materialized bytes through
// Repository backup, the adversary tap, and the streaming attack engine).
//
// # Architecture
//
//	Register(name, factory)            Lookup / List / Generate
//	        │                                   │
//	        ▼                                   ▼
//	registry ──► Factory(Config) ──► Source ──► *trace.Dataset
//	                                  │
//	            ┌─────────────────────┴───────────────┐
//	            │ *Generator (modifier chain)          │
//	            │   init(state)      → generation 0    │
//	            │   modifiers[0..n]  → generation i    │
//	            └──────────────────────────────────────┘
//
// A Config carries the scenario-independent knobs — seed (or an injected
// *rand.Rand), backup count, logical size, mean object size, user count,
// and the chunk-size model — validated and defaulted by withDefaults. A
// Factory turns a Config into a Source; every builtin factory builds a
// *Generator: an initial state constructor plus an ordered list of
// composable Modifier instances applied, in order, between backup
// generations. The paper's three datasets (Section 5.1) are compositions
// like the rest: fsl and synthetic fill directory trees (fillDirs) and
// churn them with DirChurn, vm clones one base image per user and
// evolves it with VMLayer. Modifiers are small and scenario-agnostic
// (file churn, directory-tree churn, VM-image churn with relocation and
// layering, database page updates, media-blob append, compress-then-
// backup re-cutting, multi-user overlap), so a new scenario is usually
// just a new composition, not new mechanics:
//
//	workload.Register("my-scenario", func(cfg workload.Config) (workload.Source, error) {
//		return workload.NewGenerator("my-scenario", cfg,
//			func(st *workload.State) { /* build generation 0 */ },
//			workload.FileChurn{ModifyFrac: 0.05, ContentFrac: 0.2},
//			workload.MediaAppend{AppendFrac: 0.02},
//		)
//	})
//
// # Modifier composition contract
//
// Modifiers run in registration order once per generation and communicate
// only through the *State they are handed: the per-user extent streams
// (extents may be grouped into directories), the shared duplication
// library, and the fingerprint minter. A modifier
// must not retain state across Apply calls — everything a generation
// depends on lives in State, which is what makes compositions reorderable
// and datasets reproducible.
//
// # No global randomness
//
// Every random draw comes from the State's *rand.Rand, seeded from
// Config.Seed (or injected via Config.Rng, which takes precedence); the
// fingerprint minter is salted from the same stream, so distinct seeds
// yield disjoint fingerprint spaces. Nothing in this package touches the
// global math/rand generator or iterates a Go map, so concurrently
// running generators can never perturb each other and a (name, Config)
// pair identifies one exact dataset, byte for byte — the property the
// seed-determinism suite pins for every registered workload.
package workload
