//go:build race

package experiment

// raceEnabled reports a -race build, where whole-figure replays run 5-10x
// slower than in a plain build.
const raceEnabled = true
