//go:build race

package core

// raceEnabled reports whether the race detector is on: it drops pooled
// buffers at random, so allocation counts mean nothing under it.
const raceEnabled = true
