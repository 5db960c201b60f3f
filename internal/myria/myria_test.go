package myria

import (
	"errors"
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
)

func engine(nodes, workers int, mode MemoryMode) (*Engine, *cluster.Cluster, *objstore.Store) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	store := objstore.New()
	return New(cl, store, cost.Default(), Config{WorkersPerNode: workers, Mode: mode}), cl, store
}

func stage(store *objstore.Store, n int) {
	for i := 0; i < n; i++ {
		store.Put(fmt.Sprintf("in/%03d", i), nil, 1<<20)
	}
}

func decodeOne(obj objstore.Object) []Tuple {
	return []Tuple{{Key: obj.Key, Value: obj.Key, Size: obj.Size()}}
}

func TestIngestBalanced(t *testing.T) {
	e, _, store := engine(2, 4, Pipelined)
	stage(store, 16)
	rel, err := e.Ingest("R", "in/", decodeOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples()) != 16 {
		t.Fatalf("count %d", len(rel.Tuples()))
	}
	// Round-robin placement: every worker holds exactly 2 tuples.
	for w := 0; w < e.Workers(); w++ {
		if len(rel.parts[w]) != 2 {
			t.Errorf("worker %d holds %d tuples", w, len(rel.parts[w]))
		}
	}
	if e.catalog["R"] != rel {
		t.Error("catalog lookup failed")
	}
	if _, err := e.Ingest("S", "nothing/", decodeOne); err == nil {
		t.Error("empty prefix accepted")
	}
}

func TestScanWherePushdown(t *testing.T) {
	e, _, store := engine(2, 2, Pipelined)
	stage(store, 10)
	rel, err := e.Ingest("R", "in/", decodeOne)
	if err != nil {
		t.Fatal(err)
	}
	q := e.NewQuery()
	sel := q.ScanWhere(rel, func(tp Tuple) bool { return tp.Key >= "in/005" })
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(sel.Tuples()) != 5 {
		t.Errorf("selected %d, want 5", len(sel.Tuples()))
	}
}

func TestApplyAndGroupBy(t *testing.T) {
	e, _, store := engine(2, 2, Pipelined)
	stage(store, 8)
	rel, _ := e.Ingest("R", "in/", decodeOne)
	q := e.NewQuery()
	scan := q.Scan(rel)
	doubled := q.Apply(scan, PyUDF{Name: "dup", Op: cost.Filter, F: func(tp Tuple) []Tuple {
		return []Tuple{tp, tp}
	}})
	counts := q.GroupByApply(doubled,
		func(Tuple) string { return "all" },
		PyUDA{Name: "count", Op: cost.Mean, F: func(key string, group []Tuple) []Tuple {
			return []Tuple{{Key: key, Value: len(group), Size: 1}}
		}})
	tuples, _ := q.Collect(counts)
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0].Value.(int) != 16 {
		t.Errorf("group result %+v", tuples)
	}
}

func TestBroadcastJoinPrefixMatch(t *testing.T) {
	e, _, store := engine(2, 2, Pipelined)
	store.Put("left/a1", nil, 1<<20)
	store.Put("left/a2", nil, 1<<20)
	left, _ := e.Ingest("L", "left/", func(obj objstore.Object) []Tuple {
		return []Tuple{{Key: "s0/" + obj.Key, Value: obj.Key, Size: obj.Size()}}
	})
	q := e.NewQuery()
	right := e.RelationFromTuples(q, "Mask", []Tuple{{Key: "s0", Value: "MASK", Size: 1}})
	joined := q.BroadcastJoin("j", q.Scan(left), right, func(l Tuple, rs []Tuple) []Tuple {
		if len(rs) != 1 {
			return nil
		}
		return []Tuple{{Key: l.Key, Value: rs[0].Value, Size: l.Size}}
	})
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(joined.Tuples()) != 2 {
		t.Errorf("joined %d, want 2", len(joined.Tuples()))
	}
}

func TestPipelinedOOMFailsQuery(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemPerNode = 4 << 20
	cl := cluster.New(cfg)
	store := objstore.New()
	e := New(cl, store, cost.Default(), Config{WorkersPerNode: 2, Mode: Pipelined})
	stage(store, 16) // 16 MB of intermediates vs 4 MB nodes
	rel, _ := e.Ingest("R", "in/", decodeOne)
	q := e.NewQuery()
	q.Scan(rel)
	_, err := q.Finish()
	if !errors.Is(err, cluster.ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestMaterializedSurvivesPressure(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemPerNode = 4 << 20
	cl := cluster.New(cfg)
	store := objstore.New()
	e := New(cl, store, cost.Default(), Config{WorkersPerNode: 2, Mode: Materialized})
	stage(store, 16)
	rel, _ := e.Ingest("R", "in/", decodeOne)
	q := e.NewQuery()
	q.Scan(rel)
	if _, err := q.Finish(); err != nil {
		t.Fatalf("materialized mode should survive: %v", err)
	}
}

func TestWorkerSpeedCurve(t *testing.T) {
	// Node capacity (workers × speed) peaks at 4 workers.
	cap := func(w int) float64 {
		e, _, _ := engine(1, w, Pipelined)
		return float64(w) * e.workerSpeed()
	}
	if !(cap(4) > cap(2) && cap(4) > cap(8) && cap(2) > cap(1)) {
		t.Errorf("capacity curve: 1→%v 2→%v 4→%v 8→%v", cap(1), cap(2), cap(4), cap(8))
	}
}
