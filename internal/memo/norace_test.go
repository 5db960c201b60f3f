//go:build !race

package memo

// poolRetains: see race_test.go.
const poolRetains = true
