package spark

import (
	"sort"
	"testing"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// runDenoiseJob stages nObjects 1 MB objects and runs a slow narrow map
// over them, returning the sorted results and the cluster makespan.
func runDenoiseJob(t *testing.T, cl *cluster.Cluster, store *objstore.Store) ([]Pair, vtime.Duration) {
	t.Helper()
	s := NewSession(cl, store, cost.Default())
	rdd := s.Objects("in/", 8, decodeOne).Map(UDF{Name: "slow", Op: cost.Denoise, F: func(p Pair) []Pair {
		return []Pair{{Key: p.Key, Value: p.Value.(string) + "!", Size: p.Size}}
	}})
	out, _, err := rdd.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, vtime.Duration(cl.Makespan())
}

// TestScheduledKillRecoversFromLineage drives the cluster-level fault
// schedule through Spark's task retry + lineage repair: a node killed
// mid-job loses its tasks and partitions, the executor is adopted as
// dead, and only the lost partitions are recomputed on survivors — the
// job still returns the exact same records.
func TestScheduledKillRecoversFromLineage(t *testing.T) {
	mk := func() (*cluster.Cluster, *objstore.Store) {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4
		cl := cluster.New(cfg)
		store := objstore.New()
		stage(store, 16)
		return cl, store
	}
	bcl, bstore := mk()
	want, baseline := runDenoiseJob(t, bcl, bstore)

	fcl, fstore := mk()
	// Startup is 8s; the 1 MB denoise tasks run in ~8.1–9.1s virtual
	// time, so a kill at 8.5s lands mid-job.
	killAt := vtime.Time(8500 * time.Millisecond)
	if err := fcl.Inject(cluster.Fault{Kind: cluster.FaultKill, Node: 1, At: killAt}); err != nil {
		t.Fatal(err)
	}
	fs := NewSession(fcl, fstore, cost.Default())
	rdd := fs.Objects("in/", 8, decodeOne).Map(UDF{Name: "slow", Op: cost.Denoise, F: func(p Pair) []Pair {
		return []Pair{{Key: p.Key, Value: p.Value.(string) + "!", Size: p.Size}}
	}})
	got, _, err := rdd.Collect()
	if err != nil {
		t.Fatalf("collect with scheduled kill: %v", err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(fs.dead) != 1 {
		t.Errorf("%d dead executors, want 1 (the scheduled kill adopted)", len(fs.dead))
	}
	recovered := vtime.Duration(fcl.Makespan())
	if recovered <= baseline {
		t.Errorf("recovery was free: makespan %v vs baseline %v", recovered, baseline)
	}
	// Partial recovery: losing 1 of 4 nodes mid-job must cost far less
	// than running the whole job again.
	if recovered >= 2*baseline {
		t.Errorf("recovery recomputed too much: makespan %v vs baseline %v", recovered, baseline)
	}
}
