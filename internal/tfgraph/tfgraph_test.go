package tfgraph

import (
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

func TestIngestThroughMaster(t *testing.T) {
	s, cl, store := session(4)
	for i := 0; i < 8; i++ {
		store.Put(fmt.Sprintf("in/%d", i), []byte{byte(i)}, 10<<20)
	}
	items, h, err := s.Ingest("in/", func(obj objstore.Object) ([]Tensor, error) {
		return []Tensor{{Value: obj.Key, Size: obj.Size()}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 8 || h.Node != 0 {
		t.Errorf("items %d, node %d", len(items), h.Node)
	}
	// Ingest leaves every NIC idle, the master's included: a transfer
	// between each disjoint pair of nodes still starts at time zero.
	want := vtime.Duration(float64(1<<20) / cl.Config().NetBandwidth * 1e9)
	for n := 0; n+1 < cl.Nodes(); n += 2 {
		if x := cl.Transfer(n, n+1, 1<<20); x.End != vtime.Time(want) {
			t.Errorf("transfer %d→%d ends %v, want %v: ingest touched a NIC", n, n+1, x.End, want)
		}
	}
	if _, _, err := s.Ingest("none/", nil); err == nil {
		t.Error("empty prefix accepted")
	}
}

func TestRunStepBatchesByDevice(t *testing.T) {
	s, _, _ := session(4)
	items := make([]Tensor, 10)
	for i := range items {
		items[i] = Tensor{Value: i, Size: 1 << 20}
	}
	out, h, err := s.RunStep("x", cost.Mean, items, StepOpts{}, func(tn Tensor) (Tensor, error) {
		return Tensor{Value: tn.Value.(int) * 2, Size: tn.Size}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || h == nil {
		t.Fatalf("out %d", len(out))
	}
	for i, o := range out {
		if o.Value.(int) != 2*i {
			t.Errorf("item %d = %v", i, o.Value)
		}
	}
}

func TestGraphSizeLimit(t *testing.T) {
	s, _, _ := session(2)
	s.MaxGraphBytes = 1 << 20 // shrink the 2 GB limit
	items := []Tensor{{Value: 0, Size: 1 << 30}}
	_, _, err := s.RunStep("big", cost.Mean, items, StepOpts{}, func(tn Tensor) (Tensor, error) {
		return tn, nil
	})
	if err == nil {
		t.Error("graph over the size limit accepted")
	}
}

func TestBlockedAssignmentSerializes(t *testing.T) {
	run := func(assign []int) float64 {
		s, cl, _ := session(4)
		items := make([]Tensor, 16)
		for i := range items {
			items[i] = Tensor{Value: i, Size: 14 << 20}
		}
		t0 := cl.Makespan()
		_, _, err := s.RunStep("x", cost.Denoise, items, StepOpts{Assign: assign, ConvertPasses: 4},
			func(tn Tensor) (Tensor, error) { return tn, nil })
		if err != nil {
			t.Fatal(err)
		}
		return cl.Makespan().Sub(t0).Seconds()
	}
	blocked := make([]int, 16)
	for i := range blocked {
		blocked[i] = i * 4 / 16
	}
	rr := run(nil)
	bl := run(blocked)
	if bl < 1.3*rr {
		t.Errorf("blocked assignment (%v) should be ≫ round-robin (%v)", bl, rr)
	}
}
