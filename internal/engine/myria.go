package engine

import (
	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/myria"
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
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) error {
			_, err := neuro.RunMyria(w, cl, model, neuro.MyriaOpts{})
			return err
		},
		astro: func(w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) error {
			_, err := astro.RunMyria(w, cl, model, astro.MyriaOpts{})
			return err
		},
		// The whole program restarts once per injected kill, on the
		// surviving nodes.
		onFaults: func(cl *cluster.Cluster, run func() error) (int, error) {
			return 0, myria.RunWithRestart(cl, cl.Kills(), run)
		},
		ingest: []Runner{ingestRunner("Myria", neuro.MyriaIngest)},
		steps:  []Runner{stepRunner("Myria", neuro.MyriaStep)},
		coadd:  []Runner{coaddRunner("Myria", astro.MyriaCoadd)},
		files:  map[string]string{UseNeuro: "neuro/myria.go", UseAstro: "astro/myria.go"},
	})
}
