package astro

import (
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
)

// MyriaOpts tunes the Myria implementation.
type MyriaOpts struct {
	// WorkersPerNode is the Myria worker-process count per machine
	// (0 uses the tuned default of 4).
	WorkersPerNode int
	// Mode selects the memory-management strategy (Fig 15).
	Mode myria.MemoryMode
	// ChunkVisits splits the work into multi-query chunks of this many
	// visits each; 0 runs a single query (used with Mode=MultiQuery).
	ChunkVisits int
}

// RunMyria executes the astronomy pipeline on the Myria engine: ingest
// into an Exposures relation, then a MyriaL query applying pre-process,
// patch projection, assembly, co-addition (UDF-internal iteration), and
// detection via Python UDFs/UDAs. In MultiQuery mode the visits are split
// into chunks processed as separate queries, with per-patch partial stacks
// co-added in a final query — the paper's "executing multiple queries"
// strategy (Fig 15).
func RunMyria(w *Workload, cl *cluster.Cluster, model *cost.Model, opts MyriaOpts) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	eng := myria.New(cl, w.Store, model, myria.Config{WorkersPerNode: opts.WorkersPerNode, Mode: opts.Mode})
	exposures, err := eng.Ingest("Exposures", "astro/fits/", func(obj objstore.Object) []myria.Tuple {
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			return nil
		}
		return []myria.Tuple{{Key: obj.Key, Value: e, Size: synth.PaperSensorBytes}}
	})
	if err != nil {
		return nil, err
	}
	cl.MarkStage("ingest")

	chunks := [][2]int{{0, w.Visits}} // visit ranges, half-open
	if opts.Mode == myria.MultiQuery && opts.ChunkVisits > 0 {
		chunks = chunks[:0]
		for v := 0; v < w.Visits; v += opts.ChunkVisits {
			end := v + opts.ChunkVisits
			if end > w.Visits {
				end = w.Visits
			}
			chunks = append(chunks, [2]int{v, end})
		}
	}

	stacks := make(map[skymap.Patch][]*skymap.PatchExposure)
	var prev *cluster.Handle
	for _, vr := range chunks {
		q := eng.NewQuery(prev)
		part, err := runMyriaChunk(w, q, exposures, vr[0], vr[1])
		if err != nil {
			return nil, err
		}
		h, err := q.Finish()
		if err != nil {
			return nil, err
		}
		prev = h
		for p, pes := range part {
			stacks[p] = append(stacks[p], pes...)
		}
	}

	// Final query: co-add each patch stack and detect sources.
	patchBytes := w.PatchModelBytes()
	qf := eng.NewQuery(prev)
	stackRel := relFromStacks(eng, qf, stacks, patchBytes)
	coadds := qf.GroupByApply(stackRel,
		func(t myria.Tuple) string { return PatchKey(t.Value.(*skymap.PatchExposure).Patch) },
		myria.PyUDA{Name: "coadd", Op: cost.CoaddIter, F: func(key string, group []myria.Tuple) []myria.Tuple {
			stack := make([]*skymap.PatchExposure, 0, len(group))
			for _, t := range group {
				stack = append(stack, t.Value.(*skymap.PatchExposure))
			}
			sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
			co, err := coaddOnRead(stack, ClipSigma, ClipIters)
			if err != nil {
				return nil
			}
			return []myria.Tuple{{Key: key, Value: co, Size: patchBytes}}
		}})
	detected := qf.Apply(coadds, myria.PyUDF{Name: "detect", Op: cost.DetectSources, F: func(t myria.Tuple) []myria.Tuple {
		co := t.Value.(*lazyCoadd)
		return []myria.Tuple{{Key: t.Key, Value: detectOnRead(co), Size: t.Size / 100}}
	}})
	tuples, _ := qf.Collect(detected)
	if _, err := qf.Finish(); err != nil {
		return nil, err
	}
	cl.MarkStage("coadd+detect")

	res := &resultOnRead{Patches: make(map[skymap.Patch]*lazyPatch, len(tuples))}
	for _, t := range tuples {
		pr := t.Value.(*lazyPatch)
		res.Patches[pr.Patch] = pr
	}
	return res.onRead(), nil
}

// runMyriaChunk pre-processes and patch-assembles the exposures of visits
// [v0,v1) inside query q, returning per-patch per-visit exposures.
func runMyriaChunk(w *Workload, q *myria.Query, exposures *myria.Relation, v0, v1 int) (map[skymap.Patch][]*skymap.PatchExposure, error) {
	grid := w.Grid()
	patchBytes := w.PatchModelBytes()
	scan := q.ScanWhere(exposures, func(t myria.Tuple) bool {
		e := t.Value.(*skymap.Exposure)
		return e.Visit >= v0 && e.Visit < v1
	})
	calibrated := q.Apply(scan, myria.PyUDF{Name: "preprocess", Op: cost.Preprocess, F: func(t myria.Tuple) []myria.Tuple {
		return []myria.Tuple{{Key: t.Key, Value: preprocessOnRead(t.Value.(*skymap.Exposure)), Size: t.Size}}
	}})
	pieces := q.Apply(calibrated, myria.PyUDF{Name: "patch-project", Op: cost.PatchMap, F: func(t myria.Tuple) []myria.Tuple {
		e := t.Value.(skymap.Pending)
		pts, out := overlaps[myria.Tuple](grid, e)
		for _, pt := range pts {
			out = append(out, myria.Tuple{Key: VisitPatchKey(pt, e.Header.Visit), Value: grid.Defer(e, pt), Size: patchBytes})
		}
		return out
	}})
	assembled := q.GroupByApply(pieces,
		func(t myria.Tuple) string { return t.Key },
		myria.PyUDA{Name: "patch-assemble", Op: cost.PatchMap, F: func(key string, group []myria.Tuple) []myria.Tuple {
			pes := make([]*skymap.PatchExposure, 0, len(group))
			for _, t := range group {
				pes = append(pes, t.Value.(*skymap.PatchExposure))
			}
			order := sortPatchExposures
			merged, err := skymap.Assemble(pes, order)
			if err != nil || len(merged) != 1 {
				return nil
			}
			return []myria.Tuple{{Key: key, Value: merged[0], Size: patchBytes}}
		}})
	if q.Err() != nil {
		return nil, q.Err()
	}
	out := make(map[skymap.Patch][]*skymap.PatchExposure)
	for _, t := range assembled.Tuples() {
		pe := t.Value.(*skymap.PatchExposure)
		out[pe.Patch] = append(out[pe.Patch], pe)
	}
	return out, nil
}

// relFromStacks rebuilds a relation from assembled per-patch stacks for
// the final co-addition query.
func relFromStacks(eng *myria.Engine, q *myria.Query, stacks map[skymap.Patch][]*skymap.PatchExposure, patchBytes int64) *myria.Relation {
	var patches []skymap.Patch
	for p := range stacks {
		patches = append(patches, p)
	}
	sort.Slice(patches, func(i, j int) bool {
		if patches[i].PY != patches[j].PY {
			return patches[i].PY < patches[j].PY
		}
		return patches[i].PX < patches[j].PX
	})
	var tuples []myria.Tuple
	for _, p := range patches {
		for _, pe := range stacks[p] {
			tuples = append(tuples, myria.Tuple{Key: VisitPatchKey(p, pe.Visit), Value: pe, Size: patchBytes})
		}
	}
	return eng.RelationFromTuples(q, "PatchStacks", tuples)
}
