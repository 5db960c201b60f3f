package astro

import (
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/spark"
	"imagebench/internal/synth"
)

// SparkOpts tunes the Spark implementation.
type SparkOpts struct {
	// Partitions is the input partition count; 0 uses the HDFS-block
	// default.
	Partitions int
}

// RunSpark executes the astronomy pipeline on the Spark engine: FITS
// objects → map(pre-process) → flatMap(patch projection) →
// groupBy(patch, visit) merge → groupBy(patch) co-addition with
// UDF-internal clipping iterations → map(detect).
func RunSpark(w *Workload, cl *cluster.Cluster, model *cost.Model, opts SparkOpts) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := spark.NewSession(cl, w.Store, model)
	patchBytes := w.PatchModelBytes()
	grid := w.Grid()

	exposures := sess.Objects("astro/fits/", opts.Partitions, func(obj objstore.Object) []spark.Pair {
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			return nil
		}
		return []spark.Pair{{Key: obj.Key, Value: e, Size: synth.PaperSensorBytes}}
	})

	calibrated := exposures.Map(spark.UDF{Name: "preprocess", Op: cost.Preprocess, F: func(p spark.Pair) []spark.Pair {
		return []spark.Pair{{Key: p.Key, Value: preprocessOnRead(p.Value.(*skymap.Exposure)), Size: p.Size}}
	}})

	// Step 2A: the flatmap replicating each exposure per overlapping
	// patch, then grouping per (patch, visit).
	pieces := calibrated.Map(spark.UDF{Name: "patch-project", Op: cost.PatchMap, F: func(p spark.Pair) []spark.Pair {
		e := p.Value.(skymap.Pending)
		var out []spark.Pair
		for _, pt := range grid.ExposureOverlaps(e.Header) {
			out = append(out, spark.Pair{
				Key:   VisitPatchKey(pt, e.Header.Visit),
				Value: grid.Defer(e, pt),
				Size:  patchBytes,
			})
		}
		return out
	}})
	perVisit := pieces.GroupByKey("patch-assemble", cost.PatchMap, 0, func(key string, values []spark.Pair) []spark.Pair {
		pes := make([]*skymap.PatchExposure, 0, len(values))
		for _, v := range values {
			pes = append(pes, v.Value.(*skymap.PatchExposure))
		}
		order := sortPatchExposures
		merged, err := skymap.Assemble(pes, order)
		if err != nil || len(merged) != 1 {
			return nil
		}
		return []spark.Pair{{Key: key, Value: merged[0], Size: patchBytes}}
	})

	// Step 3A: re-key by patch and co-add across visits; the clipping
	// iterations run inside the UDF, in memory (the paper's fast path).
	byPatch := perVisit.Map(spark.UDF{Name: "rekey-patch", Op: cost.Filter, F: func(p spark.Pair) []spark.Pair {
		pe := p.Value.(*skymap.PatchExposure)
		return []spark.Pair{{Key: PatchKey(pe.Patch), Value: pe, Size: p.Size}}
	}})
	coadds := byPatch.GroupByKey("coadd", cost.CoaddIter, 0, func(key string, values []spark.Pair) []spark.Pair {
		stack := make([]*skymap.PatchExposure, 0, len(values))
		for _, v := range values {
			stack = append(stack, v.Value.(*skymap.PatchExposure))
		}
		sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
		co, err := coaddOnRead(stack, ClipSigma, ClipIters)
		if err != nil {
			return nil
		}
		return []spark.Pair{{Key: key, Value: co, Size: patchBytes}}
	})

	// Step 4A: detection per coadd.
	detected := coadds.Map(spark.UDF{Name: "detect", Op: cost.DetectSources, F: func(p spark.Pair) []spark.Pair {
		co := p.Value.(*lazyCoadd)
		return []spark.Pair{{Key: p.Key, Value: detectOnRead(co), Size: p.Size / 100}}
	}})

	results, _, err := detected.Collect()
	if err != nil {
		return nil, err
	}
	cl.MarkStage("pipeline")
	res := &resultOnRead{Patches: make(map[skymap.Patch]*lazyPatch, len(results))}
	for _, p := range results {
		pr := p.Value.(*lazyPatch)
		res.Patches[pr.Patch] = pr
	}
	return res.onRead(), nil
}

// sortPatchExposures orders pieces deterministically (by valid-pixel count
// then first valid index) so merge results are reproducible regardless of
// shuffle arrival order.
func sortPatchExposures(pes []*skymap.PatchExposure) {
	firstValid := func(pe *skymap.PatchExposure) int {
		for i, v := range pe.Valid {
			if v {
				return i
			}
		}
		return len(pe.Valid)
	}
	sort.Slice(pes, func(i, j int) bool {
		if pes[i].Visit != pes[j].Visit {
			return pes[i].Visit < pes[j].Visit
		}
		return firstValid(pes[i]) < firstValid(pes[j])
	})
}
