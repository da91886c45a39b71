//go:build !race

package freqdedup

const raceEnabled = false
