package astro

import (
	"fmt"
	"sort"

	"imagebench/internal/afl"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/scidb"
	"imagebench/internal/skymap"
)

// RunAFLCoadd executes Step 3A as an AFL program against the SciDB
// engine — the frontend counterpart of the paper's 180-line AQL
// co-addition (Section 4.1):
//
//	store(iterate(scan(PatchStacks), ClipIters, clip), Coadds)
//
// Each clip iteration runs the real sigma-clipping over the patch
// stacks while the engine charges the per-statement materialization
// that makes AQL iteration slow (Fig 12d); opts.Incremental switches on
// the Soroush et al. optimization.
func RunAFLCoadd(w *Workload, cl *cluster.Cluster, model *cost.Model, stacks []*skymap.PatchExposure, opts SciDBOpts) (map[skymap.Patch]*skymap.Coadd, error) {
	cfg := scidb.DefaultConfig()
	if opts.ChunkBytes > 0 {
		cfg.ChunkBytes = opts.ChunkBytes
	}
	cfg.Incremental = opts.Incremental
	eng := scidb.New(cl, w.Store, model, cfg)
	if _, err := eng.IngestAio("PatchStacks", coaddChunks(w, cfg.ChunkBytes, stacks), 2.5); err != nil {
		return nil, err
	}

	states := make(map[skymap.Patch]*skymap.CoaddState)
	env := afl.NewEnv()
	env.DefineIteration("clip", cost.CoaddIter, func(iter int, cs []scidb.Chunk) []scidb.Chunk {
		if iter == 0 {
			byPatch := make(map[skymap.Patch][]*skymap.PatchExposure)
			for _, c := range cs {
				if pe, ok := c.Value.(*skymap.PatchExposure); ok {
					byPatch[pe.Patch] = append(byPatch[pe.Patch], pe)
				}
			}
			for p, stack := range byPatch {
				sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
				st, err := skymap.NewCoaddState(stack)
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

	program := fmt.Sprintf(`store(iterate(scan(PatchStacks), %d, clip), Coadds)`, ClipIters)
	res, err := afl.Run(eng, program, env)
	if err != nil {
		return nil, err
	}
	if h := res.Stored["Coadds"].Done(); h.Err != nil {
		return nil, h.Err
	}
	out := make(map[skymap.Patch]*skymap.Coadd, len(states))
	for p, st := range states {
		out[p] = st.Sum()
	}
	return out, nil
}
