//go:build race

package memo

// poolRetains reports whether a sync.Pool keeps what it is given. The
// race detector makes Pool drop items at random, so a pooled Hasher
// cannot be counted on and neither can a hit that allocates nothing.
const poolRetains = false
