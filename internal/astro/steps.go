package astro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/myria"
	"imagebench/internal/skymap"
	"imagebench/internal/spark"
	"imagebench/internal/vtime"
)

// This file provides the co-addition step runners behind Fig 12d, one
// per system, bound by value in the engine registrations. The input
// patch stacks come from Steps 1A+2A as the reference computes them
// (setup outside the timed region), matching the paper's per-step
// methodology: BuildStacks decodes and calibrates through the memo the
// engine models share, since every column and experiment that builds
// stacks from one survey builds the same ones, and projects fresh
// pieces each time with Grid.Project, not Grid.Defer: these stacks
// carry their planes and are keyed by content. A nil model means
// cost.Default(), resolved by the system constructors.
//
// The runners model time and return nothing else, so Spark's and
// Myria's co-addition UDFs compute no coadd. BuildStacks and SciDB's
// runner still do: it shares RunSciDB's path, whose coadds tests read.

// BuildStacks runs Steps 1A+2A to produce the patch exposures that the
// co-addition step consumes, bit-equal to the reference's. It computes
// because SciDB's runner co-adds these stacks on RunSciDB's path.
func BuildStacks(w *Workload) ([]*skymap.PatchExposure, error) {
	keys := w.Store.List("astro/fits/")
	exposures := make([]*skymap.Exposure, len(keys))
	for i, key := range keys {
		obj, err := w.Store.Get(key)
		if err != nil {
			return nil, err
		}
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			return nil, fmt.Errorf("astro: decoding %s: %w", key, err)
		}
		exposures[i] = PreprocessMemo(e)
	}
	return CreatePatches(w.Grid(), exposures)
}

// SparkCoadd measures Step 3A on Spark.
func SparkCoadd(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure) (vtime.Duration, error) {
	patchBytes := w.PatchModelBytes()
	sess := spark.NewSession(cl, w.Store, model)
	var pairs []spark.Pair
	for _, pe := range stacks {
		pairs = append(pairs, spark.Pair{Key: PatchKey(pe.Patch), Size: patchBytes})
	}
	rdd := sess.Parallelize("stacks", pairs, cl.Workers())
	t0 := cl.Makespan()
	co := rdd.GroupByKey("coadd", cost.CoaddIter, 0, func(key string, _ []spark.Pair) []spark.Pair { return []spark.Pair{{Key: key, Size: patchBytes}} })
	if _, err := co.Materialize(); err != nil {
		return 0, err
	}
	return cl.Makespan().Sub(t0), nil
}

// MyriaCoadd measures Step 3A on Myria.
func MyriaCoadd(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure) (vtime.Duration, error) {
	patchBytes := w.PatchModelBytes()
	eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
	q := eng.NewQuery()
	var tuples []myria.Tuple
	for _, pe := range stacks {
		tuples = append(tuples, myria.Tuple{Key: VisitPatchKey(pe.Patch, pe.Visit), Value: pe, Size: patchBytes})
	}
	rel := eng.RelationFromTuples(q, "PatchStacks", tuples)
	t0 := cl.Makespan()
	q.GroupByApply(rel,
		func(t myria.Tuple) string { return PatchKey(t.Value.(*skymap.PatchExposure).Patch) },
		myria.PyUDA{Name: "coadd", Op: cost.CoaddIter, F: func(key string, _ []myria.Tuple) []myria.Tuple { return []myria.Tuple{{Key: key, Size: patchBytes}} }})
	if _, err := q.Finish(); err != nil {
		return 0, err
	}
	return cl.Makespan().Sub(t0), nil
}

// SciDBCoaddRunner returns the measurement of Step 3A on SciDB under
// opts: the plain AQL iteration, the incremental-iteration optimization
// (the Soroush et al. work the paper cites as a 6× improvement), or an
// explicit deployment chunk size (the Section 5.3.1 chunk-size sweep).
// Only the AQL co-addition is timed: the makespan from the end of
// ingest (which the other systems' runs keep outside the timed region
// too) to the end of the iterative query.
func SciDBCoaddRunner(opts SciDBOpts) func(*Workload, *cluster.Cluster, *cost.Model, []*skymap.PatchExposure) (vtime.Duration, error) {
	return func(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure) (vtime.Duration, error) {
		// The ingest settles the makespan at its completion because the
		// iterative query's first pass depends on the last ingest write
		// on each instance.
		var afterIngest vtime.Time
		// Computed: RunSciDB shares this path, and tests read its coadds.
		coadds, err := runSciDBCoaddPhased(w, cl, model, stacks, opts, func(t vtime.Time) { afterIngest = t })
		if err != nil {
			return 0, err
		}
		if len(coadds) == 0 {
			return 0, fmt.Errorf("astro: scidb coadd produced nothing")
		}
		return cl.Makespan().Sub(afterIngest), nil
	}
}
