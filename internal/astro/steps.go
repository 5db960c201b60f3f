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
// patch stacks are Steps 1A+2A's output as the reference computes it,
// deferred (BuildStacks): their patch and visit are at hand, and their
// planes are built only when read, matching the paper's per-step
// methodology with the setup outside the timed region.
//
// The runners model time and return nothing else, so no runner computes
// a coadd: Spark's and Myria's UDFs emit sizes only, and SciDB's shares
// RunSciDBCoadd's path, whose coadds are computed when read.

// BuildStacks runs Steps 1A+2A to produce the patch exposures that the
// co-addition step consumes, deferred: decoded now, calibrated and
// projected when read, bit-equal to the reference's then.
func BuildStacks(w *Workload) ([]*skymap.PatchExposure, error) {
	g := w.Grid()
	var pieces []*skymap.PatchExposure
	for _, key := range w.Store.List("astro/fits/") {
		obj, err := w.Store.Get(key)
		if err != nil {
			return nil, err
		}
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			return nil, fmt.Errorf("astro: decoding %s: %w", key, err)
		}
		cal := preprocessOnRead(e)
		for _, p := range g.ExposureOverlaps(e) {
			pieces = append(pieces, g.Defer(cal, p))
		}
	}
	return skymap.AssemblePatches(pieces)
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
		if _, err := runSciDBCoaddPhased(w, cl, model, stacks, opts, func(t vtime.Time) { afterIngest = t }); err != nil {
			return 0, err
		}
		return cl.Makespan().Sub(afterIngest), nil
	}
}
