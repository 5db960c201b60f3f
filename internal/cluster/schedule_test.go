package cluster_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/core"
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
