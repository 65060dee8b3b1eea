//go:build !race

package serve

// raceEnabled reports whether the race detector is active; it makes
// sync.Pool drop items at random, so allocation-count assertions skip.
const raceEnabled = false
