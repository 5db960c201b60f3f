package core

import (
	"context"
	"testing"

	"imagebench/internal/lazy"
)

// No table reads a pixel: one pass over every quick-profile experiment
// computes no lazy value. The engine runs hand their outputs to nothing
// that forces them, and the Fig 11/12 step runners compute none (that
// their UDFs call no kernel eagerly, suite.TestKernelsRunOnRead holds).
// What the tables do read of the inputs, the staged objects' decodes and
// SciDB's CSV ingest, is computed when a run does and never deferred.
// Not parallel: the count is process-wide.
func TestTablesForceNoPixel(t *testing.T) {
	before := lazy.Computed()
	p := Quick()
	for _, e := range All() {
		if _, err := e.Run(context.Background(), p); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if n := lazy.Computed() - before; n != 0 {
		t.Errorf("the quick pass computed %d lazy values; a table forced pixels", n)
	}
}
