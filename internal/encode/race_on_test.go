//go:build race

package encode

// raceEnabled reports whether the race detector is on: it drops pooled
// records at random, so allocation counts mean nothing under it.
const raceEnabled = true
