package astro

import (
	"fmt"
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/dask"
	"imagebench/internal/fits"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
	"imagebench/internal/vtime"
)

// RunDask executes the astronomy pipeline as a Dask compute graph:
// per-sensor fetch + pre-process chains feeding per-patch assembly,
// co-addition, and detection tasks.
//
// The paper implemented this but could not benchmark it: "the
// implementation freezes once deployed on a cluster and we found it
// surprisingly difficult to track down the cause of the problem"
// (Section 4.4). Our implementation runs — the experiment registry keeps
// Dask out of the headline astronomy figures to match the paper, but the
// tests exercise this code for correctness.
func RunDask(w *Workload, cl *cluster.Cluster, model *cost.Model) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := dask.NewSession(cl, w.Store, model)
	grid := w.Grid()
	patchBytes := w.PatchModelBytes()

	// Fetch + pre-process each sensor exposure, pinned round-robin.
	keys := w.Store.List("astro/fits/")
	calibrated := make([]*dask.Delayed, len(keys))
	for i, key := range keys {
		fetch := sess.Fetch(key, i%cl.Nodes(), func(obj objstore.Object) (any, int64, error) {
			e, err := fits.DecodeStaged(obj)
			if err != nil {
				return nil, 0, err
			}
			return e, synth.PaperSensorBytes, nil
		})
		calibrated[i] = sess.Delayed("preprocess/"+key, cost.Preprocess,
			[]*dask.Delayed{fetch},
			func(args []any) (any, int64, error) {
				return preprocessOnRead(args[0].(*skymap.Exposure)), synth.PaperSensorBytes, nil
			})
	}
	// A barrier to learn each exposure's patch footprint (the geometry
	// drives graph construction, as subject counts did in neuroscience).
	if _, err := sess.Compute(calibrated...); err != nil {
		return nil, err
	}
	cl.MarkStage("preprocess")

	// Group calibrated exposures per (patch, visit), then per patch.
	type pv struct {
		patch skymap.Patch
		visit int
	}
	contributors := make(map[pv][]*dask.Delayed)
	for _, c := range calibrated {
		e := c.Value().(skymap.Pending).Header
		for _, p := range grid.ExposureOverlaps(e) {
			k := pv{p, e.Visit}
			contributors[k] = append(contributors[k], c)
		}
	}
	pvKeys := make([]pv, 0, len(contributors))
	for k := range contributors {
		pvKeys = append(pvKeys, k)
	}
	sort.Slice(pvKeys, func(i, j int) bool {
		a, b := pvKeys[i], pvKeys[j]
		if a.patch != b.patch {
			if a.patch.PY != b.patch.PY {
				return a.patch.PY < b.patch.PY
			}
			return a.patch.PX < b.patch.PX
		}
		return a.visit < b.visit
	})

	perPatch := make(map[skymap.Patch][]*dask.Delayed)
	for _, k := range pvKeys {
		k := k
		deps := contributors[k]
		assembled := sess.Delayed("assemble/"+VisitPatchKey(k.patch, k.visit), cost.PatchMap, deps,
			func(args []any) (any, int64, error) {
				var pieces []*skymap.PatchExposure
				for _, a := range args {
					e := a.(skymap.Pending)
					pieces = append(pieces, grid.Defer(e, k.patch))
				}
				order := sortPatchExposures
				merged, err := skymap.Assemble(pieces, order)
				if err != nil {
					return nil, 0, err
				}
				if len(merged) != 1 {
					return nil, 0, fmt.Errorf("astro/dask: %d merged exposures for %v", len(merged), k.patch)
				}
				return merged[0], patchBytes, nil
			})
		perPatch[k.patch] = append(perPatch[k.patch], assembled)
	}

	var roots []*dask.Delayed
	resultNodes := make(map[skymap.Patch]*dask.Delayed)
	var patches []skymap.Patch
	for p := range perPatch {
		patches = append(patches, p)
	}
	sort.Slice(patches, func(i, j int) bool {
		if patches[i].PY != patches[j].PY {
			return patches[i].PY < patches[j].PY
		}
		return patches[i].PX < patches[j].PX
	})
	for _, p := range patches {
		p := p
		deps := perPatch[p]
		stackBytes := patchBytes * int64(len(deps))
		coadd := sess.DelayedCost("coadd/"+PatchKey(p),
			func(int64) vtime.Duration { return model.AlgTime(cost.CoaddIter, stackBytes) },
			deps,
			func(args []any) (any, int64, error) {
				stack := make([]*skymap.PatchExposure, len(args))
				for i, a := range args {
					stack[i] = a.(*skymap.PatchExposure)
				}
				sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
				co, err := coaddOnRead(stack, ClipSigma, ClipIters)
				if err != nil {
					return nil, 0, err
				}
				return co, patchBytes, nil
			},
		)
		detect := sess.Delayed("detect/"+PatchKey(p), cost.DetectSources,
			[]*dask.Delayed{coadd},
			func(args []any) (any, int64, error) {
				co := args[0].(*lazyCoadd)
				return detectOnRead(co), patchBytes / 100, nil
			})
		resultNodes[p] = detect
		roots = append(roots, detect)
	}
	if _, err := sess.Compute(roots...); err != nil {
		return nil, err
	}
	cl.MarkStage("coadd")
	res := &resultOnRead{Patches: make(map[skymap.Patch]*lazyPatch, len(resultNodes))}
	for p, n := range resultNodes {
		res.Patches[p] = n.Value().(*lazyPatch)
	}
	return res.onRead(), nil
}
