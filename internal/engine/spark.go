package engine

import (
	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// Spark (internal/neuro/spark.go, internal/astro/spark.go) participates
// in every comparison: both end-to-end pipelines, ingest, per-step
// timing, co-addition, fault tolerance, and Table 1. It recomputes only
// the lost partitions from lineage, inside its own task paths.
func init() {
	Register(system{
		name:     "Spark",
		recovery: RecoverLineage,
		ranks: CapSet{
			CapNeuroE2E:       3,
			CapAstroE2E:       1,
			CapNeuroIngest:    2,
			CapNeuroStep:      3,
			CapAstroCoadd:     1,
			CapFaultTolerance: 1,
			CapLoC:            3,
		},
		neuro: func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) error {
			_, err := neuro.RunSpark(w, cl, model, neuro.SparkOpts{Partitions: opts.partitions(cl), CacheInput: opts.CacheInput})
			return err
		},
		astro: func(w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) error {
			_, err := astro.RunSpark(w, cl, model, astro.SparkOpts{Partitions: opts.partitions(cl)})
			return err
		},
		ingest: []Runner{ingestRunner("Spark", neuro.SparkIngest)},
		steps:  []Runner{stepRunner("Spark", neuro.SparkStep)},
		coadd:  []Runner{coaddRunner("Spark", astro.SparkCoadd)},
		files:  map[string]string{UseNeuro: "neuro/spark.go", UseAstro: "astro/spark.go"},
	})
}
