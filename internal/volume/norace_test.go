//go:build !race

package volume

// poolRetains: see race_test.go.
const poolRetains = true
