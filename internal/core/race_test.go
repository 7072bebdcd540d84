//go:build race

package core

// raceEnabled reports a -race build: sync.Pool drops a random share of the
// values put back under the race detector, so allocation counts of paths that
// take their scratch from a pool are not exact there.
const raceEnabled = true
