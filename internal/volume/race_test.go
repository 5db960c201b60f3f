//go:build race

package volume

// poolRetains reports whether a sync.Pool Put followed by a Get on the
// same goroutine returns the same object. The race detector makes Pool
// drop items at random, so reuse cannot be asserted under -race.
const poolRetains = false
