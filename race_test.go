//go:build race

package freqdedup

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops a share of its Puts on purpose, so pooled buffers are reallocated.
const raceEnabled = true
