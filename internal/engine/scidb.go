package engine

import (
	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
	"imagebench/internal/scidb"
)

// SciDB (internal/neuro/scidb.go, internal/astro/scidb.go) runs the
// neuroscience pipeline (via the aio_input ingest), binds two ingest
// paths and an incremental co-addition beside the plain one, and offers
// no mid-query recovery — the paper's "failure plus manual rerun" row.
// It has no end-to-end astronomy run (only the co-addition step was
// expressible) and is absent from Fig 10's sweeps, so it is ranked for
// neither CapNeuroE2E nor CapAstroE2E.
func init() {
	Register(system{
		name:     "SciDB",
		recovery: RecoverManualRerun,
		ranks: CapSet{
			CapNeuroIngest:    5,
			CapNeuroStep:      4,
			CapAstroCoadd:     3,
			CapFaultTolerance: 5,
			CapLoC:            2,
		},
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return neuro.RunSciDB(w, cl, model, neuro.SciDBAio)
		},
		noAstro: "no end-to-end astronomy run (only the co-addition step is expressible)",
		// One full failed attempt is paid per kill, then the operator's
		// manual rerun; the count of failed attempts is reported.
		onFaults: func(cl *cluster.Cluster, run func() error) (int, error) {
			return scidb.RerunOnFailure(cl, cl.Kills(), run)
		},
		// Fig 11's two SciDB bars: the serial SciDB-py from_array() path
		// and the accelerated aio_input load.
		ingest: []Runner{
			ingestRunner("SciDB-1", neuro.SciDBIngestRunner(neuro.SciDBFromArray)),
			ingestRunner("SciDB-2", neuro.SciDBIngestRunner(neuro.SciDBAio)),
		},
		steps: []Runner{stepRunner("SciDB", neuro.SciDBStep)},
		// The plain materialize-per-statement AQL iteration and the
		// incremental-iteration optimization the paper cites as ~6×.
		coadd: []Runner{
			coaddRunner("SciDB", astro.SciDBCoaddRunner(astro.SciDBOpts{})),
			coaddRunner("SciDB-incremental", astro.SciDBCoaddRunner(astro.SciDBOpts{Incremental: true})),
		},
		files: map[string]string{UseNeuro: "neuro/scidb.go", UseAstro: "astro/scidb.go"},
	})
}
