//go:build !race

package results

// raceEnabled: see race_test.go.
const raceEnabled = false
