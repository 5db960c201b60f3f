//go:build !race

package daemon

// raceEnabled: see race_test.go.
const raceEnabled = false
