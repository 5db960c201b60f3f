package engine

import (
	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// Myria (internal/neuro/myria.go, internal/astro/myria.go), like Spark,
// participates in every comparison; its recovery policy is a full-query
// restart.
func init() {
	Register(system{
		name:     "Myria",
		recovery: RecoverRestart,
		ranks: CapSet{
			CapNeuroE2E:       2,
			CapAstroE2E:       2,
			CapNeuroIngest:    1,
			CapNeuroStep:      2,
			CapAstroCoadd:     2,
			CapFaultTolerance: 2,
			CapLoC:            4,
		},
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return neuro.RunMyria(w, cl, model, neuro.MyriaOpts{})
		},
		astro: func(w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return astro.RunMyria(w, cl, model, astro.MyriaOpts{})
		},
		// The paper's fault-tolerance finding for Myria: there is no
		// mid-query recovery, so the coordinator aborts the failed query
		// and the whole program is resubmitted once per injected kill,
		// paying startup, ingest and all completed work again on the
		// surviving nodes. Restarts are not reported as failed attempts.
		onFaults: func(cl *cluster.Cluster, run func() error) (int, error) {
			_, err := cl.RerunAfterKills(cl.Kills(), run)
			return 0, err
		},
		ingest: []Runner{ingestRunner("Myria", neuro.MyriaIngest)},
		steps:  []Runner{stepRunner("Myria", neuro.MyriaStep)},
		coadd:  []Runner{coaddRunner("Myria", astro.MyriaCoadd)},
		files:  map[string]string{UseNeuro: "neuro/myria.go", UseAstro: "astro/myria.go"},
	})
}
