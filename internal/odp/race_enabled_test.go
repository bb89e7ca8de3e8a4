//go:build race

package odp

// raceEnabled reports that the race detector is instrumenting this test
// binary: sync.Pool then drops entries at random, so allocation counts vary.
const raceEnabled = true
