package neuro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/dask"
	"imagebench/internal/imaging"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// RunDask executes the neuroscience pipeline on the Dask engine,
// mirroring the paper's Figure 8 program: delayed downloadAndFilter per
// subject, a barrier counting volumes, per-block means reassembled into
// median_otsu, then per-volume denoise and per-block model fits, computed
// with a single final barrier. Each subject's chain is independent, so the
// dynamic scheduler pipelines steps across subjects — the behaviour behind
// Dask's Fig 10c crossover.
func RunDask(w *Workload, cl *cluster.Cluster, model *cost.Model) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := dask.NewSession(cl, w.Store, model)
	volBytes := synth.PaperVolBytes
	maskBytes := volBytes / 4
	b0 := w.Grad.B0Mask(50)
	nz := w.Cfg.NZ
	blocks := volume.Blocks(nz, w.Blocks)
	slabBytes := volBytes / int64(len(blocks))

	// Download each subject to a pinned machine: Dask's scheduler does
	// not know download sizes in advance, so the paper assigns subjects
	// to nodes explicitly (Section 5.2.1).
	fetch := make([]*dask.Delayed, w.Subjects)
	for s := 0; s < w.Subjects; s++ {
		fetch[s] = sess.Fetch(synth.NeuroKeyNIfTI(s), s%cl.Nodes(), func(obj objstore.Object) (any, int64, error) {
			v4, err := decodeNIfTI(obj)
			if err != nil {
				return nil, 0, err
			}
			return v4, w.Cfg.SubjectModelBytes(), nil
		})
	}
	// The paper's first barrier: evaluate numVols for every subject.
	if _, err := sess.Compute(fetch...); err != nil {
		return nil, err
	}
	cl.MarkStage("fetch")

	var roots []*dask.Delayed
	maskNodes := make([]*dask.Delayed, w.Subjects)
	faNodes := make(map[string]*dask.Delayed) // sSSS/bBB → fa slab
	b0Bytes := volBytes * int64(w.Cfg.B0)
	for s := 0; s < w.Subjects; s++ {
		s := s
		// Per-block partial means over the b0 volumes, reassembled, then
		// median_otsu (Figure 8 lines 8–11). Tasks slice the fetched
		// subject directly, as Dask's fused graph does.
		var means []*dask.Delayed
		for bi, b := range blocks {
			b := b
			means = append(means, sess.DelayedCost(
				fmt.Sprintf("mean/%s/b%02d", SubjKey(s), bi),
				func(int64) vtime.Duration {
					return model.AlgTime(cost.Mean, b0Bytes) / vtime.Duration(len(blocks))
				},
				[]*dask.Delayed{fetch[s]},
				func(args []any) (any, int64, error) {
					v4 := args[0].(*volume.V4).Select(b0)
					slabs := make([]slab, v4.T())
					for i, v := range v4.Vols {
						slabs[i] = blockOnRead(held(v), b)
					}
					return meanOnRead(slabs), slabBytes, nil
				}))
		}
		reassembled := sess.DelayedCost("reassemble/"+SubjKey(s),
			func(int64) vtime.Duration { return 0 },
			means,
			func(args []any) (any, int64, error) {
				mean := newAssembly(w.Cfg.NX, w.Cfg.NY, nz)
				for i, a := range args {
					mean.InsertBlock(blocks[i], a.(*lazyVol))
				}
				return mean.onRead(), volBytes, nil
			})
		mask := sess.Delayed("median_otsu/"+SubjKey(s), cost.Otsu,
			[]*dask.Delayed{reassembled},
			func(args []any) (any, int64, error) {
				mean := args[0].(*lazyVol)
				return segmentFromMean(mean), maskBytes, nil
			})
		maskNodes[s] = mask

		// Denoise per volume, then fit per block.
		den := make([]*dask.Delayed, w.Cfg.T)
		for t := 0; t < w.Cfg.T; t++ {
			t := t
			den[t] = sess.DelayedCost("denoise/"+VolKey(s, t),
				func(int64) vtime.Duration {
					return model.AlgTime(cost.Denoise, volBytes+maskBytes)
				},
				[]*dask.Delayed{fetch[s], mask},
				func(args []any) (any, int64, error) {
					v := args[0].(*volume.V4).Vols[t]
					return denoiseOnRead(held(v), args[1].(*lazyVol)), volBytes, nil
				})
		}
		for bi, b := range blocks {
			b := b
			key := synth.FormatKey("s###/b##", s, bi)
			deps := append(append([]*dask.Delayed{}, den...), mask)
			faNodes[key] = sess.DelayedCost("fitmodel/"+key,
				func(in int64) vtime.Duration {
					return model.AlgTime(cost.FitDTM, in) / vtime.Duration(len(blocks))
				},
				deps,
				func(args []any) (any, int64, error) {
					slabs := make([]slab, len(args)-1)
					for i := 0; i < len(args)-1; i++ {
						slabs[i] = blockOnRead(args[i].(*lazyVol), b)
					}
					maskSlab := blockOnRead(args[len(args)-1].(*lazyVol), b)
					fa, err := fitOnRead(w.Grad, slabs, maskSlab)
					if err != nil {
						return nil, 0, err
					}
					return faSlab{Block: b, FA: fa}, slabBytes, nil
				})
			roots = append(roots, faNodes[key])
		}
	}
	if _, err := sess.Compute(roots...); err != nil {
		return nil, err
	}
	cl.MarkStage("compute")

	// Assemble results on the client.
	masks := make(map[int]*lazyVol, w.Subjects)
	for s := 0; s < w.Subjects; s++ {
		masks[s] = maskNodes[s].Value().(*lazyVol)
	}
	type kv struct {
		key string
		val any
	}
	var items []kv
	for key, node := range faNodes {
		items = append(items, kv{key, node.Value()})
	}
	return assembleFA(w, masks, items, func(it kv) (string, any) { return it.key, it.val })
}

// segmentFromMean applies the median filter + Otsu sub-steps to an
// already-computed mean volume (the Dask plan computes the mean in
// per-block tasks, so Segment cannot be reused wholesale).
func segmentFromMean(mean *lazyVol) *lazyVol {
	return then(mean, func(m *volume.V3) *volume.V3 { return imaging.OtsuMask(imaging.MedianFilter3(m, 1)) })
}
