// Package suite enumerates the repo's invariant analyzers — the set
// its clean test runs over every package of the module under plain
// `go test ./internal/analysis/...`.
package suite

import (
	"imagebench/internal/analysis"
	"imagebench/internal/analysis/atomicwrite"
	"imagebench/internal/analysis/droppederr"
	"imagebench/internal/analysis/enginedispatch"
	"imagebench/internal/analysis/releasepair"
	"imagebench/internal/analysis/spanend"
	"imagebench/internal/analysis/walldeterminism"
)

// All returns the full analyzer suite in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicwrite.Analyzer,
		droppederr.Analyzer,
		enginedispatch.Analyzer,
		releasepair.Analyzer,
		spanend.Analyzer,
		walldeterminism.Analyzer,
	}
}
