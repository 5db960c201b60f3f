package neuro

import (
	"fmt"
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// MyriaOpts tunes the Myria implementation.
type MyriaOpts struct {
	// WorkersPerNode is the number of Myria worker processes per machine
	// (Fig 13; 0 uses the tuned default of 4).
	WorkersPerNode int
	// Mode selects the memory-management strategy (Fig 15).
	Mode myria.MemoryMode
}

// RunMyria executes the neuroscience pipeline on the Myria engine,
// mirroring the paper's Figure 7 program: ingest into an Images relation,
// a first query computing the mask, a broadcast join, then Python
// UDFs/UDAs for denoise and model fit.
func RunMyria(w *Workload, cl *cluster.Cluster, model *cost.Model, opts MyriaOpts) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	eng := myria.New(cl, w.Store, model, myria.Config{WorkersPerNode: opts.WorkersPerNode, Mode: opts.Mode})
	volBytes := synth.PaperVolBytes
	maskBytes := volBytes / 4
	b0 := w.Grad.B0Mask(50)

	images, err := eng.Ingest("Images", "neuro/npy/", func(obj objstore.Object) []myria.Tuple {
		s, t, err := npyKeyIDs(obj.Key)
		if err != nil {
			return nil
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil
		}
		return []myria.Tuple{{Key: VolKey(s, t), Value: v, Size: volBytes}}
	})
	if err != nil {
		return nil, err
	}
	cl.MarkStage("ingest")

	// ---- Query 1: the segmentation mask (Step 1N). ----
	q1 := eng.NewQuery()
	b0Rel := q1.ScanWhere(images, func(t myria.Tuple) bool {
		_, vol, err := ParseVolKey(t.Key)
		return err == nil && vol < len(b0) && b0[vol]
	})
	maskRel := q1.GroupByApply(b0Rel,
		func(t myria.Tuple) string {
			s, _, _ := ParseVolKey(t.Key)
			return SubjKey(s)
		},
		myria.PyUDA{Name: "segment", Op: cost.Mean, F: func(key string, group []myria.Tuple) []myria.Tuple {
			vols := sortedVols(group, func(t myria.Tuple) tsVol {
				_, vol, _ := ParseVolKey(t.Key)
				return tsVol{T: vol, Vol: t.Value.(*volume.V3)}
			})
			return []myria.Tuple{{Key: key, Value: segmentOnRead(vols), Size: maskBytes}}
		}})
	h1, err := q1.Finish()
	if err != nil {
		return nil, err
	}
	cl.MarkStage("mask")

	masks := make(map[int]*lazyVol, w.Subjects)
	for _, t := range maskRel.Tuples() {
		var s int
		if !synth.ScanKey(t.Key, "s###", &s) {
			return nil, fmt.Errorf("neuro/myria: bad mask key %q", t.Key)
		}
		masks[s] = t.Value.(*lazyVol)
	}

	// ---- Query 2: broadcast join + denoise + repart + fit. ----
	nz := w.Cfg.NZ
	blocks := volume.Blocks(nz, w.Blocks)
	slabBytes := volBytes / int64(len(blocks))

	type joined struct {
		vol  reader
		mask reader
	}
	q2 := eng.NewQuery(h1)
	t1 := q2.Scan(images)
	j := q2.BroadcastJoin("join-mask", t1, maskRel, func(l myria.Tuple, rs []myria.Tuple) []myria.Tuple {
		if len(rs) == 0 {
			return nil
		}
		return []myria.Tuple{{
			Key:   l.Key,
			Value: joined{vol: held(l.Value.(*volume.V3)), mask: rs[0].Value.(*lazyVol)},
			Size:  l.Size + rs[0].Size,
		}}
	})
	den := q2.Apply(j, myria.PyUDF{Name: "Denoise", Op: cost.Denoise, F: func(t myria.Tuple) []myria.Tuple {
		jv := t.Value.(joined)
		return []myria.Tuple{{Key: t.Key, Value: joined{vol: denoiseOnRead(jv.vol, jv.mask), mask: jv.mask}, Size: t.Size}}
	}})
	repart := q2.Apply(den, myria.PyUDF{Name: "repart", Op: cost.Regroup, F: func(t myria.Tuple) []myria.Tuple {
		s, tv, err := ParseVolKey(t.Key)
		if err != nil {
			return nil
		}
		jv := t.Value.(joined)
		out := make([]myria.Tuple, 0, len(blocks))
		for bi, b := range blocks {
			out = append(out, myria.Tuple{
				Key:   synth.FormatKey("s###/b##/t###", s, bi, tv),
				Value: blockPiece{T: tv, Block: b, Slab: blockOnRead(jv.vol, b)},
				Size:  slabBytes,
			})
		}
		return out
	}})
	fit := q2.GroupByApply(repart,
		func(t myria.Tuple) string { return pieceBlock(t.Key) },
		myria.PyUDA{Name: "fitmodel", Op: cost.FitDTM, F: func(key string, group []myria.Tuple) []myria.Tuple {
			var s, b int
			if !synth.ScanKey(key, "s###/b##", &s, &b) {
				return nil
			}
			pieces := make([]blockPiece, 0, len(group))
			for _, t := range group {
				pieces = append(pieces, t.Value.(blockPiece))
			}
			sort.Slice(pieces, func(i, j int) bool { return pieces[i].T < pieces[j].T })
			slabs := make([]slab, 0, len(pieces))
			for _, pc := range pieces {
				slabs = append(slabs, pc.Slab)
			}
			maskSlab := blockOnRead(masks[s], pieces[0].Block)
			fa, err := fitOnRead(w.Grad, slabs, maskSlab)
			if err != nil {
				return nil
			}
			return []myria.Tuple{{Key: key, Value: faSlab{Block: pieces[0].Block, FA: fa}, Size: slabBytes}}
		}})
	faTuples, _ := q2.Collect(fit)
	if _, err := q2.Finish(); err != nil {
		return nil, err
	}
	cl.MarkStage("fit")
	return assembleFA(w, masks, faTuples, func(t myria.Tuple) (string, any) { return t.Key, t.Value })
}
