package engine

import (
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// TensorFlow (internal/neuro/tf.go) runs the neuroscience pipeline
// (checkpoint-and-restart inside its RunStep in the ft experiments) and
// is measured on ingest and per-step timing, but it is absent from the
// Fig 10 end-to-end sweeps and — as the paper's Table 1 marks NA — the
// astronomy workload is not implementable on it at all.
func init() {
	Register(system{
		name:     "TensorFlow",
		recovery: RecoverCheckpoint,
		ranks: CapSet{
			CapNeuroIngest:    4,
			CapNeuroStep:      5,
			CapFaultTolerance: 4,
			CapLoC:            5,
		},
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error) {
			return neuro.RunTF(w, cl, model, neuro.TFOpts{})
		},
		noAstro: "astronomy workload not implementable (paper Table 1 NA)",
		ingest:  []Runner{ingestRunner("TensorFlow", neuro.TFIngest)},
		steps:   []Runner{stepRunner("TensorFlow", neuro.TFStep)},
		files:   map[string]string{UseNeuro: "neuro/tf.go"},
	})
}
