//go:build race

package results

// raceEnabled reports a race-detector build, whose allocation counts
// are not a normal build's: Key allocates 13 times a call under it, 10
// without.
const raceEnabled = true
