package scidb

import (
	"fmt"
	"testing"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

func testChunks(n int) []Chunk {
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{Coords: fmt.Sprintf("c%02d", i), Value: i, Size: 1 << 20}
	}
	return out
}

// runQuery is one SciDB query: aio ingest plus a streamed operator.
func runQuery(cl *cluster.Cluster, store *objstore.Store) error {
	e := New(cl, store, cost.Default(), DefaultConfig())
	a, err := e.IngestAio("A", testChunks(16), 2.5)
	if err != nil {
		return err
	}
	out := a.Stream("work", cost.Denoise, func(c Chunk) Chunk { return c })
	if h := out.Done(); h.Err != nil {
		return h.Err
	}
	return nil
}

// TestNodeDeathHasNoRecovery: SciDB offers no mid-query recovery — an
// instance dying mid-query fails the query with the node-down error, and
// only a manual operator rerun (on the survivors, after the failure)
// produces a result. The reported cost includes the wasted attempt.
func TestNodeDeathHasNoRecovery(t *testing.T) {
	mk := func() (*cluster.Cluster, *objstore.Store) {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4
		return cluster.New(cfg), objstore.New()
	}
	bcl, bstore := mk()
	if err := runQuery(bcl, bstore); err != nil {
		t.Fatal(err)
	}
	baseline := vtime.Duration(bcl.Makespan())

	fcl, fstore := mk()
	// Startup is 6s; ingest and the operator run from ~6s, so a kill at
	// 6.3s lands mid-query.
	killAt := vtime.Time(6300 * time.Millisecond)
	if err := fcl.Inject(cluster.Fault{Kind: cluster.FaultKill, Node: 1, At: killAt}); err != nil {
		t.Fatal(err)
	}
	// The query itself must fail — there is nothing resembling recovery.
	if err := runQuery(fcl, fstore); err == nil {
		t.Fatal("query survived a node death; SciDB has no mid-query recovery")
	}

	rcl, rstore := mk()
	if err := rcl.Inject(cluster.Fault{Kind: cluster.FaultKill, Node: 1, At: killAt}); err != nil {
		t.Fatal(err)
	}
	attempts, err := rcl.RerunAfterKills(rcl.Kills(), func() error {
		return runQuery(rcl, rstore)
	})
	if err != nil {
		t.Fatalf("operator rerun failed: %v", err)
	}
	if attempts != 1 {
		t.Errorf("failed attempts = %d, want 1", attempts)
	}
	recovered := vtime.Duration(rcl.Makespan())
	if min := vtime.Duration(killAt) + baseline/2; recovered <= min {
		t.Errorf("rerun too cheap: makespan %v, want > %v (wasted attempt + full rerun)", recovered, min)
	}
}
