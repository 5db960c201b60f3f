package astro

import (
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/scidb"
	"imagebench/internal/skymap"
	"imagebench/internal/vtime"
)

// SciDBOpts tunes the SciDB co-addition.
type SciDBOpts struct {
	// ChunkBytes overrides the deployment chunk size (Section 5.3.1
	// sweeps it; 0 keeps the tuned [1000×1000] default).
	ChunkBytes int64
	// Incremental enables the incremental iterative-processing
	// optimization (Soroush et al.), recovering ~6× on this step.
	Incremental bool
}

// RunSciDBCoadd executes the parts of the astronomy use case the paper
// could implement on SciDB: ingesting the (externally assembled) patch
// exposures via aio_input and running Step 3A entirely in AQL, where each
// clipping iteration materializes the full intermediate array (Fig 12d).
// Pre-processing, patch creation, and detection were not implementable
// (Table 1: "X"/"NA"); the input stacks therefore come from the reference
// pipeline's Step 2A output.
func RunSciDBCoadd(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure, opts SciDBOpts) (*CoaddOutput, error) {
	return runSciDBCoaddPhased(w, cl, model, stacks, opts, nil)
}

// runSciDBCoaddPhased is RunSciDBCoadd with a hook observing the virtual
// time at which ingest completed (used for step-only timing, Fig 12d).
func runSciDBCoaddPhased(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure, opts SciDBOpts, afterIngest func(vtime.Time)) (*CoaddOutput, error) {
	if model == nil {
		model = cost.Default()
	}
	cfg := scidb.DefaultConfig()
	if opts.ChunkBytes > 0 {
		cfg.ChunkBytes = opts.ChunkBytes
	}
	cfg.Incremental = opts.Incremental
	eng := scidb.New(cl, w.Store, model, cfg)

	arr, err := eng.IngestAio("PatchStacks", coaddChunks(w, cfg.ChunkBytes, stacks), 2.5)
	if err != nil {
		return nil, err
	}
	if h := arr.Done(); h.Err != nil {
		return nil, h.Err
	}
	if afterIngest != nil {
		afterIngest(cl.Makespan())
	}

	// Step 3A in AQL: iterative clipping with per-statement
	// materialization. The real clipping runs through CoaddState; the
	// final pass sums the survivors.
	states := make(map[skymap.Patch]*clipsOnRead)
	final := arr.IterativeAQL("coadd-aql", ClipIters, cost.CoaddIter, func(iter int, cs []scidb.Chunk) []scidb.Chunk {
		if iter == 0 {
			byPatch := make(map[skymap.Patch][]*skymap.PatchExposure)
			for _, c := range cs {
				if pe, ok := c.Value.(*skymap.PatchExposure); ok {
					byPatch[pe.Patch] = append(byPatch[pe.Patch], pe)
				}
			}
			for p, stack := range byPatch {
				sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
				st, err := newClipsOnRead(stack)
				if err == nil {
					states[p] = st
				}
			}
		}
		for _, st := range states {
			st.ClipIteration(ClipSigma)
		}
		return cs
	})
	if h := final.Done(); h.Err != nil {
		return nil, h.Err
	}
	out := make(coaddsOnRead, len(states))
	for p, st := range states {
		out[p] = st.Sum()
	}
	return out.onRead(), nil
}

// coaddChunks lays the patch stacks out as stored chunks: one chunk run
// per (patch, visit) plane, with the paper-scale plane size split into
// deployment-sized chunks for cost purposes (ceil(plane/chunk) chunk
// units; the real data rides on the first chunk of each plane).
func coaddChunks(w *Workload, chunkBytes int64, stacks []*skymap.PatchExposure) []scidb.Chunk {
	patchBytes := w.PatchModelBytes()
	var chunks []scidb.Chunk
	sorted := append([]*skymap.PatchExposure(nil), stacks...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Patch != b.Patch {
			if a.Patch.PY != b.Patch.PY {
				return a.Patch.PY < b.Patch.PY
			}
			return a.Patch.PX < b.Patch.PX
		}
		return a.Visit < b.Visit
	})
	for _, pe := range sorted {
		remaining := patchBytes
		first := true
		for remaining > 0 {
			size := chunkBytes
			if size > remaining {
				size = remaining
			}
			c := scidb.Chunk{Coords: VisitPatchKey(pe.Patch, pe.Visit), Size: size}
			if first {
				c.Value = pe // real data rides on the first chunk
				first = false
			}
			chunks = append(chunks, c)
			remaining -= size
		}
	}
	return chunks
}
