//go:build race

package daemon

// raceEnabled reports a race-detector build, whose allocation counts
// are not a normal build's.
const raceEnabled = true
