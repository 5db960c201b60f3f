package dask

import (
	"fmt"
	"testing"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// buildFanGraph stages a wide graph of slow independent tasks feeding a
// final sum, returning the root. Values are real so recovery can be
// checked for correctness, not just timing.
func buildFanGraph(s *Session, n int) *Delayed {
	leaves := make([]*Delayed, n)
	for i := 0; i < n; i++ {
		i := i
		leaves[i] = s.DelayedCost(fmt.Sprintf("leaf/%02d", i),
			func(int64) vtime.Duration { return 2 * time.Second },
			nil,
			func([]any) (any, int64, error) { return i + 1, 1 << 20, nil })
	}
	return s.DelayedCost("sum",
		func(int64) vtime.Duration { return time.Second },
		leaves,
		func(args []any) (any, int64, error) {
			total := 0
			for _, a := range args {
				total += a.(int)
			}
			return total, 8, nil
		})
}

// TestWorkerDeathResubmitsTasks kills a node mid-graph: Dask holds the
// graph during execution, so tasks (and results) lost with the worker
// are resubmitted on survivors and the computed value is unchanged.
func TestWorkerDeathResubmitsTasks(t *testing.T) {
	mk := func() *cluster.Cluster {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4
		return cluster.New(cfg)
	}
	const n = 24
	want := n * (n + 1) / 2

	bcl := mk()
	base := NewSession(bcl, objstore.New(), cost.Default())
	if _, err := base.Compute(buildFanGraph(base, n)); err != nil {
		t.Fatal(err)
	}
	baseline := vtime.Duration(bcl.Makespan())

	fcl := mk()
	// Startup is 25s; the 2s leaves run from ~25s, so a kill at 26s
	// lands while the first wave is executing everywhere.
	if err := fcl.Inject(cluster.Fault{Kind: cluster.FaultKill, Node: 2, At: vtime.Time(26 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	s := NewSession(fcl, objstore.New(), cost.Default())
	root := buildFanGraph(s, n)
	if _, err := s.Compute(root); err != nil {
		t.Fatalf("compute with scheduled kill: %v", err)
	}
	if got := root.Value().(int); got != want {
		t.Errorf("recovered sum = %d, want %d", got, want)
	}
	recovered := vtime.Duration(fcl.Makespan())
	if recovered <= baseline {
		t.Errorf("worker death was free: makespan %v vs baseline %v", recovered, baseline)
	}
	if recovered >= 2*baseline {
		t.Errorf("resubmission recomputed too much: %v vs baseline %v", recovered, baseline)
	}
}
