package engine

import (
	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// Dask (internal/neuro/dask.go, internal/astro/dask.go) runs the
// neuroscience pipeline in every comparison and resubmits lost tasks on
// survivors inside its scheduler. Its astronomy run exists
// (astro.RunDask) and is bound below, but the paper's Dask froze on the
// astronomy workload, so it is unranked for CapAstroE2E and stays out
// of the headline astronomy sweeps — its astronomy LoC is still counted
// in Table 1, exactly as the paper does.
func init() {
	Register(system{
		name:     "Dask",
		recovery: RecoverResubmit,
		ranks: CapSet{
			CapNeuroE2E:       1,
			CapNeuroIngest:    3,
			CapNeuroStep:      1,
			CapFaultTolerance: 3,
			CapLoC:            1,
		},
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return neuro.RunDask(w, cl, model)
		},
		astro: func(w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return astro.RunDask(w, cl, model)
		},
		ingest: []Runner{ingestRunner("Dask", neuro.DaskIngest)},
		steps:  []Runner{stepRunner("Dask", neuro.DaskStep)},
		files:  map[string]string{UseNeuro: "neuro/dask.go", UseAstro: "astro/dask.go"},
	})
}
