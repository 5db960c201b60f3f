package spark

import (
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
)

func session(nodes int) (*Session, *cluster.Cluster, *objstore.Store) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	store := objstore.New()
	return NewSession(cl, store, cost.Default()), cl, store
}

func stage(store *objstore.Store, n int) {
	for i := 0; i < n; i++ {
		store.Put(fmt.Sprintf("in/%03d", i), nil, 1<<20)
	}
}

func decodeOne(obj objstore.Object) []Pair {
	return []Pair{{Key: obj.Key, Value: obj.Key, Size: obj.Size()}}
}

func TestMapAndCollect(t *testing.T) {
	s, _, store := session(2)
	stage(store, 8)
	rdd := s.Objects("in/", 4, decodeOne).Map(UDF{Name: "tag", Op: cost.Filter, F: func(p Pair) []Pair {
		return []Pair{{Key: p.Key, Value: p.Value.(string) + "!", Size: p.Size}}
	}})
	out, h, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 || h == nil {
		t.Fatalf("collected %d", len(out))
	}
	for _, p := range out {
		if p.Value.(string) != p.Key+"!" {
			t.Errorf("map not applied: %v", p.Value)
		}
	}
}

func TestFlatMapDropsAndExpands(t *testing.T) {
	s, _, store := session(2)
	stage(store, 4)
	rdd := s.Objects("in/", 2, decodeOne).Map(UDF{Name: "expand", Op: cost.Filter, F: func(p Pair) []Pair {
		if p.Key == "in/000" {
			return nil // drop
		}
		return []Pair{p, p} // duplicate
	}})
	out, _, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Errorf("got %d records, want 6", len(out))
	}
}

func TestGroupByKeyGathersAllValues(t *testing.T) {
	s, _, store := session(2)
	stage(store, 6)
	grouped := s.Objects("in/", 3, decodeOne).
		Map(UDF{Name: "rekey", Op: cost.Filter, F: func(p Pair) []Pair {
			return []Pair{{Key: "g" + p.Key[len(p.Key)-1:], Value: 1, Size: p.Size}}
		}}).
		GroupByKey("count", cost.Mean, 0, func(key string, values []Pair) []Pair {
			return []Pair{{Key: key, Value: len(values), Size: 1}}
		})
	out, _, err := grouped.Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range out {
		total += p.Value.(int)
	}
	if total != 6 {
		t.Errorf("grouped %d values, want 6", total)
	}
}

func TestDefaultPartitioningHDFSLike(t *testing.T) {
	s, _, store := session(4)
	for i := 0; i < 100; i++ {
		store.Put(fmt.Sprintf("in/%03d", i), nil, 64<<20) // 6.4 GB total
	}
	rdd := s.Objects("in/", 0, decodeOne)
	// 6.4 GB / 1 GB default partition bytes → ~7 partitions, far fewer
	// than objects (the paper's under-utilization default).
	if rdd.nParts < 5 || rdd.nParts > 10 {
		t.Errorf("default partitions = %d", rdd.nParts)
	}
}

func TestMorePartitionsFasterUntilSlots(t *testing.T) {
	timeFor := func(parts int) float64 {
		s, cl, store := session(4) // 32 slots
		stage(store, 64)
		rdd := s.Objects("in/", parts, decodeOne).Map(UDF{Name: "work", Op: cost.Denoise, F: func(p Pair) []Pair {
			return []Pair{p}
		}})
		if _, err := rdd.Materialize(); err != nil {
			t.Fatal(err)
		}
		return cl.Makespan().Seconds()
	}
	t1, t16, t64 := timeFor(1), timeFor(16), timeFor(64)
	if !(t1 > t16 && t16 > t64*0.8) {
		t.Errorf("partition scaling wrong: 1→%f 16→%f 64→%f", t1, t16, t64)
	}
}

func TestUncachedLineageRecomputes(t *testing.T) {
	s, _, store := session(2)
	stage(store, 4)
	calls := 0
	src := s.Objects("in/", 2, func(obj objstore.Object) []Pair {
		calls++
		return decodeOne(obj)
	})
	m := src.Map(UDF{Name: "id", Op: cost.Filter, F: func(p Pair) []Pair { return []Pair{p} }})
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	first := calls
	m2 := src.Map(UDF{Name: "id2", Op: cost.Filter, F: func(p Pair) []Pair { return []Pair{p} }})
	if _, err := m2.Materialize(); err != nil {
		t.Fatal(err)
	}
	if calls != 2*first {
		t.Errorf("uncached source decoded %d times, want %d (recompute)", calls, 2*first)
	}
}

func TestCachedLineageReused(t *testing.T) {
	s, _, store := session(2)
	stage(store, 4)
	calls := 0
	src := s.Objects("in/", 2, func(obj objstore.Object) []Pair {
		calls++
		return decodeOne(obj)
	}).Cache()
	if _, err := src.Materialize(); err != nil {
		t.Fatal(err)
	}
	first := calls
	m := src.Map(UDF{Name: "id", Op: cost.Filter, F: func(p Pair) []Pair { return []Pair{p} }})
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if calls != first {
		t.Errorf("cached source decoded again (%d calls)", calls)
	}
}

func TestShuffleSpillsUnderPressure(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemPerNode = 10 << 20 // tiny memory
	cl := cluster.New(cfg)
	store := objstore.New()
	s := NewSession(cl, store, cost.Default())
	stage(store, 8) // 8 MB total but grouped onto few reducers
	grouped := s.Objects("in/", 4, decodeOne).
		Map(UDF{Name: "one-key", Op: cost.Filter, F: func(p Pair) []Pair {
			return []Pair{{Key: "all", Value: p.Value, Size: 8 << 20}}
		}}).
		GroupByKey("gather", cost.Mean, 0, func(key string, values []Pair) []Pair {
			return []Pair{{Key: key, Value: len(values), Size: 1}}
		})
	if _, err := grouped.Materialize(); err != nil {
		t.Fatalf("spilling should prevent failure: %v", err)
	}
	if s.SpilledBytes() == 0 {
		t.Error("expected spill under memory pressure")
	}
}

func TestParallelize(t *testing.T) {
	s, _, _ := session(2)
	pairs := []Pair{{Key: "a", Size: 1}, {Key: "b", Size: 1}, {Key: "c", Size: 1}}
	out, _, err := s.Parallelize("x", pairs, 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("parallelize lost records: %d", len(out))
	}
}
