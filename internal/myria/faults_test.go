package myria

import (
	"fmt"
	"testing"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

func stageObjects(store *objstore.Store, n int) {
	for i := 0; i < n; i++ {
		store.Put(fmt.Sprintf("in/%03d", i), nil, 1<<20)
	}
}

func decodeObj(obj objstore.Object) []Tuple {
	return []Tuple{{Key: obj.Key, Value: obj.Key, Size: obj.Size()}}
}

// runProgram is one full MyriaL program: ingest + a slow UDF + collect.
func runProgram(cl *cluster.Cluster, store *objstore.Store, out *[]Tuple) error {
	e := New(cl, store, cost.Default(), Config{})
	rel, err := e.Ingest("R", "in/", decodeObj)
	if err != nil {
		return err
	}
	q := e.NewQuery()
	ap := q.Apply(rel, PyUDF{Name: "slow", Op: cost.Denoise, F: func(t Tuple) []Tuple {
		return []Tuple{{Key: t.Key, Value: t.Value.(string) + "!", Size: t.Size}}
	}})
	tuples, _ := q.Collect(ap)
	if _, err := q.Finish(); err != nil {
		return err
	}
	*out = tuples
	return nil
}

// TestNodeDeathRestartsWholeQuery: Myria has no mid-query recovery — a
// worker node dying mid-program aborts it, and RunWithRestart re-runs
// the whole program (startup, ingest, every operator) on the survivors.
func TestNodeDeathRestartsWholeQuery(t *testing.T) {
	mk := func() (*cluster.Cluster, *objstore.Store) {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4
		cl := cluster.New(cfg)
		store := objstore.New()
		stageObjects(store, 16)
		return cl, store
	}
	bcl, bstore := mk()
	var want []Tuple
	if err := runProgram(bcl, bstore, &want); err != nil {
		t.Fatal(err)
	}
	baseline := vtime.Duration(bcl.Makespan())

	fcl, fstore := mk()
	// Startup is 4s; ingest and the UDF run in ~4–4.5s, so a kill at
	// 4.3s lands mid-program.
	killAt := vtime.Time(4300 * time.Millisecond)
	if err := fcl.Inject(cluster.Fault{Kind: cluster.FaultKill, Node: 1, At: killAt}); err != nil {
		t.Fatal(err)
	}
	var got []Tuple
	err := RunWithRestart(fcl, fcl.Kills(), func() error {
		return runProgram(fcl, fstore, &got)
	})
	if err != nil {
		t.Fatalf("restart did not recover: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("restarted query returned %d tuples, want %d", len(got), len(want))
	}
	recovered := vtime.Duration(fcl.Makespan())
	// Full restart: the wasted first attempt plus a complete re-run on
	// 3 of 4 nodes — necessarily more than kill time + baseline.
	if min := vtime.Duration(killAt) + baseline; recovered <= min {
		t.Errorf("restart too cheap for a full re-run: makespan %v, want > %v", recovered, min)
	}
	// A no-op transfer starts at the booking floor.
	if floor := fcl.Transfer(0, 0, 0).End; floor < killAt {
		t.Errorf("floor %v not advanced to the failure at %v", floor, killAt)
	}
}
