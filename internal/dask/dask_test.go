package dask

import (
	"errors"
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

func session(nodes int) (*Session, *cluster.Cluster, *objstore.Store) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	store := objstore.New()
	return NewSession(cl, store, cost.Default()), cl, store
}

func TestComputeChain(t *testing.T) {
	s, _, store := session(2)
	store.Put("k", []byte("abc"), 1000)
	fetch := s.Fetch("k", 0, func(obj objstore.Object) (any, int64, error) {
		return string(obj.Data), obj.Size(), nil
	})
	upper := s.Delayed("upper", cost.Filter, []*Delayed{fetch}, func(args []any) (any, int64, error) {
		return args[0].(string) + "!", 1000, nil
	})
	if _, err := s.Compute(upper); err != nil {
		t.Fatal(err)
	}
	if upper.Value().(string) != "abc!" {
		t.Errorf("value %v", upper.Value())
	}
	if upper.Size() != 1000 {
		t.Errorf("size %d", upper.Size())
	}
}

func TestValueBeforeComputePanics(t *testing.T) {
	s, _, _ := session(1)
	d := s.Delayed("x", cost.Filter, nil, func([]any) (any, int64, error) { return 1, 1, nil })
	defer func() {
		if recover() == nil {
			t.Error("Value() before Compute should panic (the paper's missing-barrier bug)")
		}
	}()
	d.Value()
}

func TestErrorPropagates(t *testing.T) {
	s, _, _ := session(1)
	boom := errors.New("boom")
	bad := s.Delayed("bad", cost.Filter, nil, func([]any) (any, int64, error) { return nil, 0, boom })
	dep := s.Delayed("dep", cost.Filter, []*Delayed{bad}, func(args []any) (any, int64, error) {
		t.Error("dependent ran despite failure")
		return nil, 0, nil
	})
	if _, err := s.Compute(dep); !errors.Is(err, boom) {
		t.Fatalf("error %v", err)
	}
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	s, cl, _ := session(4)
	var roots []*Delayed
	for i := 0; i < 32; i++ {
		roots = append(roots, s.DelayedCost(fmt.Sprintf("t%d", i),
			func(int64) vtime.Duration { return cost.Default().AlgTime(cost.Denoise, 16<<20) },
			nil,
			func([]any) (any, int64, error) { return nil, 1 << 20, nil }))
	}
	if _, err := s.Compute(roots...); err != nil {
		t.Fatal(err)
	}
	nodes := map[int]int{}
	for _, r := range roots {
		nodes[r.node]++
	}
	if len(nodes) != 4 {
		t.Errorf("tasks used %d nodes, want 4 (stealing should spread)", len(nodes))
	}
	// Utilization is depressed by the 25s startup idle period; 32 tasks
	// of ~10s on 32 slots should still exceed 25%.
	if cl.Utilization() < 0.25 {
		t.Errorf("utilization %.2f too low for independent tasks", cl.Utilization())
	}
}

func TestReplicaCachedOnce(t *testing.T) {
	// consumers pins n consumers of one 100 MB input on node 0 to node 1
	// and returns how many tasks the cluster booked. Each shipment books
	// one deserialize task on the receiver.
	consumers := func(n int) int {
		s, cl, _ := session(2)
		big := s.DelayedCost("big", func(int64) vtime.Duration { return 0 }, nil,
			func([]any) (any, int64, error) { return "data", 100 << 20, nil })
		big.pinNode = 0
		var cs []*Delayed
		for i := range n {
			c := s.Delayed(fmt.Sprintf("c%d", i), cost.Filter, []*Delayed{big}, func(args []any) (any, int64, error) { return nil, 1, nil })
			c.pinNode = 1
			cs = append(cs, c)
		}
		if _, err := s.Compute(cs...); err != nil {
			t.Fatal(err)
		}
		return cl.Tasks()
	}
	// A second consumer on node 1 adds its own task and no shipment.
	if one, two := consumers(1), consumers(2); two != one+1 {
		t.Errorf("two consumers booked %d tasks, one booked %d: want one more (the input ships once)", two, one)
	}
}

func TestSchedulerCostGrowsWithCluster(t *testing.T) {
	m := cost.Default()
	if m.SchedTime(cost.Dask, 64) <= m.SchedTime(cost.Dask, 16) {
		t.Error("Dask dispatch cost should grow with cluster size")
	}
}
