package cluster_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/core"
	"imagebench/internal/vtime"
)

// sweepAstro is the sweep-astro benchmark's grid (benchmark/sweepastro.go):
// these experiments on seven clusterNodes pairs (lo, hi), lo+hi = 17.
var sweepAstro = []string{
	"abl-dask-stealing", "abl-myria-pushdown", "abl-spark-pytax",
	"fig10d", "fig10f", "fig10h", "fig12d", "fig15", "ftastro", "sec531scidb",
}

// Every virtual second every table reports comes from a schedule that
// keeps the simulator's rules (audit.go): over every experiment at the
// quick and the full profile, and over the sweep-astro grid. A break
// names the run, the rule and the resource.
func TestScheduleAudit(t *testing.T) {
	var breaks []string
	audit := func(run string, e *core.Experiment, p core.Profile) {
		for _, b := range cluster.Audit(func() {
			if _, err := e.Run(context.Background(), p); err != nil {
				t.Errorf("%s: %v", run, err)
			}
		}) {
			breaks = append(breaks, fmt.Sprintf("%s breaks %q on %s: %s", run, b.Rule, b.Resource, b.Detail))
		}
	}
	for _, p := range []core.Profile{core.Quick(), core.Full()} {
		for _, e := range core.All() {
			audit(p.Name+"/"+e.ID, e, p)
		}
	}
	for i := 0; i < 7; i++ {
		o := core.Overrides{ClusterNodes: []int{2 + i, 15 - i}}
		for _, id := range sweepAstro {
			e, err := core.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			p := core.Quick().Apply(o)
			audit(p.Name+"/"+id, e, e.Canonical(p))
		}
	}
	sort.Strings(breaks)
	for _, b := range breaks {
		t.Error(b)
	}
}

// FuzzSchedule runs the schedule audit (audit.go) over arbitrary call
// sequences on a small cluster with up to two kills: no rule may break
// for any mix of Submit, Transfer, DiskRead, Broadcast, Barrier, floor
// advances and mid-run Makespan checks. The first six bytes shape the
// cluster and its kills; then each four bytes are one call, whose
// dependencies are earlier handles picked by index.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{2, 1, 1, 50, 0, 0, 0, 0, 0, 20, 1, 0, 1, 30, 2, 1, 0, 9, 3, 0, 1, 40, 4, 1, 2, 0})
	f.Add([]byte{3, 2, 2, 90, 3, 40, 3, 1, 0, 60, 1, 2, 1, 70, 0, 2, 2, 30, 5, 0, 0, 50, 6, 0, 0, 0, 0, 1, 3, 25})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return
		}
		c := cluster.New(cluster.Config{Nodes: 1 + int(b[0]%4), WorkersPerNode: 1 + int(b[1]%3),
			MemPerNode: 1, NetBandwidth: 1e9, DiskBandwidth: 1e9})
		var kills []cluster.Fault
		for _, k := range [][2]byte{{b[2], b[3]}, {b[4], b[5]}} {
			if n := int(k[0]) % (c.Nodes() + 1); n > 1 { // node 0 survives
				kills = append(kills, cluster.Fault{Kind: cluster.FaultKill, Node: n - 1, At: vtime.Time(k[1])})
			}
		}
		if err := c.Inject(kills...); err != nil {
			t.Fatal(err)
		}
		for _, br := range cluster.Audit(func() {
			hs := []cluster.Handle{{}}
			for i := 6; i+4 <= len(b); i += 4 {
				node, dep, arg := int(b[i+1])%c.Nodes(), &hs[int(b[i+2])%len(hs)], b[i+3]
				var h *cluster.Handle
				switch b[i] % 7 {
				case 0:
					h = c.Submit(node, []*cluster.Handle{dep}, vtime.Duration(arg), nil)
				case 1:
					h = c.Transfer(node, int(arg)%c.Nodes(), int64(b[i+2]), dep)
				case 2:
					h = c.DiskRead(node, int64(arg), dep)
				case 3:
					h = c.Broadcast(node, int64(arg), dep)
				case 4:
					h = c.Barrier(dep, &hs[int(arg)%len(hs)])
				case 5:
					c.AdvanceFloor(vtime.Time(arg))
				default:
					c.Makespan()
				}
				if h != nil {
					hs = append(hs, *h)
				}
			}
		}) {
			t.Errorf("breaks %q on %s: %s", br.Rule, br.Resource, br.Detail)
		}
	})
}
