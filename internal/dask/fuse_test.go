package dask

import (
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

func fuseSession(nodes int) *Session {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	return NewSession(cluster.New(cfg), objstore.New(), cost.Default())
}

// buildChains constructs nChains independent linear pipelines of depth
// stages each (the per-subject pipeline shape of the neuroscience use
// case) and returns the roots.
func buildChains(s *Session, nChains, depth int) []*Delayed {
	var roots []*Delayed
	for c := 0; c < nChains; c++ {
		cur := s.Delayed(fmt.Sprintf("src%d", c), cost.Filter, nil, func([]any) (any, int64, error) {
			return 1.0, 64 << 20, nil
		})
		for st := 0; st < depth; st++ {
			prev := cur
			cur = s.Delayed(fmt.Sprintf("c%d/s%d", c, st), cost.Denoise, []*Delayed{prev},
				func(args []any) (any, int64, error) {
					return args[0].(float64) + 1, 64 << 20, nil
				})
		}
		roots = append(roots, cur)
	}
	return roots
}

func TestFusionCorrectness(t *testing.T) {
	s := fuseSession(4)
	s.EnableFusion()
	roots := buildChains(s, 3, 5)
	if _, err := s.Compute(roots...); err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		if got := r.Value().(float64); got != 6 {
			t.Errorf("chain %d: value %v, want 6", i, got)
		}
	}
	// Each chain of depth 5 stages + source: the 5 stages fuse onto the
	// source's consumer chain — 5 dispatches saved per chain... the
	// source is fusible into stage 0 too, so 5 of 6 tasks fuse.
	if s.FusedTasks() != 3*5 {
		t.Errorf("fused %d tasks, want 15", s.FusedTasks())
	}
}

func TestFusionSavesSchedulerTime(t *testing.T) {
	run := func(fuse bool) vtime.Time {
		s := fuseSession(4)
		if fuse {
			s.EnableFusion()
		}
		roots := buildChains(s, 4, 6)
		h, err := s.Compute(roots...)
		if err != nil {
			t.Fatal(err)
		}
		return h.End
	}
	plain := run(false)
	fused := run(true)
	if fused >= plain {
		t.Errorf("fusion should reduce makespan: fused=%v plain=%v", fused, plain)
	}
}

func TestFusionPreservesSharedNodes(t *testing.T) {
	// A node consumed by two consumers must not fuse into either.
	s := fuseSession(2)
	s.EnableFusion()
	src := s.Delayed("src", cost.Filter, nil, func([]any) (any, int64, error) {
		return 10.0, 1 << 20, nil
	})
	a := s.Delayed("a", cost.Filter, []*Delayed{src}, func(args []any) (any, int64, error) {
		return args[0].(float64) * 2, 1 << 20, nil
	})
	b := s.Delayed("b", cost.Filter, []*Delayed{src}, func(args []any) (any, int64, error) {
		return args[0].(float64) + 5, 1 << 20, nil
	})
	if _, err := s.Compute(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Value().(float64) != 20 || b.Value().(float64) != 15 {
		t.Errorf("values: a=%v b=%v", a.Value(), b.Value())
	}
	if s.FusedTasks() != 0 {
		t.Errorf("fused %d tasks across a shared node, want 0", s.FusedTasks())
	}
}

func TestFusionRespectsRoots(t *testing.T) {
	// An intermediate that is itself a Compute root must stay a task
	// boundary (its value is requested).
	s := fuseSession(2)
	s.EnableFusion()
	src := s.Delayed("src", cost.Filter, nil, func([]any) (any, int64, error) {
		return 1.0, 1 << 20, nil
	})
	mid := s.Delayed("mid", cost.Filter, []*Delayed{src}, func(args []any) (any, int64, error) {
		return args[0].(float64) + 1, 1 << 20, nil
	})
	top := s.Delayed("top", cost.Filter, []*Delayed{mid}, func(args []any) (any, int64, error) {
		return args[0].(float64) + 1, 1 << 20, nil
	})
	if _, err := s.Compute(top, mid); err != nil {
		t.Fatal(err)
	}
	if mid.Value().(float64) != 2 || top.Value().(float64) != 3 {
		t.Errorf("mid=%v top=%v", mid.Value(), top.Value())
	}
	// src may fuse into mid, but mid must not fuse into top.
	if s.FusedTasks() > 1 {
		t.Errorf("fused %d tasks, want ≤1", s.FusedTasks())
	}
}

func TestFusionRespectsPinning(t *testing.T) {
	s := fuseSession(3)
	s.EnableFusion()
	store := s.store
	store.Put("obj/a", []byte{1}, 1<<20)
	fetch := s.Fetch("obj/a", 1, func(o objstore.Object) (any, int64, error) {
		return 1.0, o.Size(), nil
	})
	top := s.Delayed("top", cost.Filter, []*Delayed{fetch}, func(args []any) (any, int64, error) {
		return args[0].(float64) + 1, 1 << 20, nil
	})
	if _, err := s.Compute(top); err != nil {
		t.Fatal(err)
	}
	if s.FusedTasks() != 0 {
		t.Errorf("pinned fetch fused: %d", s.FusedTasks())
	}
	if fetch.node != 1 {
		t.Errorf("pinned fetch ran on node %d, want 1", fetch.node)
	}
}

func TestFusionErrorPropagates(t *testing.T) {
	s := fuseSession(2)
	s.EnableFusion()
	src := s.Delayed("src", cost.Filter, nil, func([]any) (any, int64, error) {
		return 1.0, 1 << 20, nil
	})
	bad := s.Delayed("bad", cost.Filter, []*Delayed{src}, func([]any) (any, int64, error) {
		return nil, 0, fmt.Errorf("boom")
	})
	top := s.Delayed("top", cost.Filter, []*Delayed{bad}, func(args []any) (any, int64, error) {
		return args[0], 0, nil
	})
	if _, err := s.Compute(top); err == nil {
		t.Fatal("expected error from fused chain")
	}
}
