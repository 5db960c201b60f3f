package myria

import (
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
)

// Section 5.3.2: skewed data growth (6× on some workers in the astronomy
// pipeline) pushes pipelined execution into OOM, while materialized
// execution bounds memory to one operator at a time and survives.

// skewEngine builds an engine whose per-node memory is small enough that
// one skewed partition overflows it.
func skewEngine(t *testing.T, mode MemoryMode) *Engine {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemPerNode = 1 << 30 // 1 GB per node
	cl := cluster.New(cfg)
	return New(cl, objstore.New(), cost.Default(), Config{WorkersPerNode: 4, Mode: mode})
}

// skewedTuples returns tuples that all hash to one worker (same key):
// total bytes exceed a single node's memory though the cluster as a
// whole has plenty.
func skewedTuples(n int, size int64) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Key: "hot-patch", Value: i, Size: size}
	}
	return out
}

func TestPipelinedSkewOOM(t *testing.T) {
	e := skewEngine(t, Pipelined)
	q := e.NewQuery()
	rel := e.RelationFromTuples(q, "skewed", skewedTuples(24, 128<<20)) // 3 GB on one worker
	out := q.Apply(rel, PyUDF{Name: "grow", Op: cost.CoaddIter, F: func(tp Tuple) []Tuple {
		return []Tuple{tp}
	}})
	_ = out
	if _, err := q.Finish(); err == nil {
		t.Fatal("pipelined query over skewed data should fail with OOM")
	} else if got := err.Error(); got == "" || !contains(got, "out of memory") {
		t.Fatalf("error should mention OOM: %v", err)
	}
}

func TestMaterializedSurvivesSkew(t *testing.T) {
	e := skewEngine(t, Materialized)
	q := e.NewQuery()
	rel := e.RelationFromTuples(q, "skewed", skewedTuples(24, 128<<20))
	out := q.Apply(rel, PyUDF{Name: "grow", Op: cost.CoaddIter, F: func(tp Tuple) []Tuple {
		return []Tuple{tp}
	}})
	if len(out.Tuples()) != 24 {
		t.Fatalf("got %d tuples, want 24", len(out.Tuples()))
	}
	if _, err := q.Finish(); err != nil {
		t.Fatalf("materialized mode should survive skew, got %v", err)
	}
}

func TestBalancedPipelinedFits(t *testing.T) {
	// The same total bytes spread across distinct keys fit in pipelined
	// mode: the failure above is skew, not volume.
	e := skewEngine(t, Pipelined)
	q := e.NewQuery()
	tuples := make([]Tuple, 24)
	for i := range tuples {
		tuples[i] = Tuple{Key: fmt.Sprintf("patch-%02d", i), Value: i, Size: 128 << 20}
	}
	rel := e.RelationFromTuples(q, "balanced", tuples)
	q.Apply(rel, PyUDF{Name: "grow", Op: cost.CoaddIter, F: func(tp Tuple) []Tuple {
		return []Tuple{tp}
	}})
	if _, err := q.Finish(); err != nil {
		t.Fatalf("balanced pipelined query should fit, got %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
