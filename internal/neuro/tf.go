package neuro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/imaging"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/tfgraph"
	"imagebench/internal/volume"
)

// TFResult holds what the TensorFlow implementation can produce. The
// paper implemented a simplified Step 1N (mean + thresholding instead of
// median_otsu) and a Step 2N without the mask (no element-wise masked
// assignment); Step 3N was not implementable (Table 1: "NA").
type TFResult struct {
	Masks    map[int]*volume.V3
	Denoised map[string]*volume.V3 // VolKey → denoised volume (unmasked)
}

// TFOpts tunes the TensorFlow implementation.
type TFOpts struct {
	// Assign maps item index → device for the filter step; nil uses the
	// round-robin default (Section 5.3.1 found a 2× spread between
	// assignments).
	Assign []int
	// ConvDenoise replaces Step 2N's (unmasked) non-local means with the
	// convolutional rewrite the paper describes ("We further rewrite
	// Step 2N using convolutions", Section 4.5): a separable Gaussian
	// smoothing expressed as tensor ops. The result is a different —
	// cruder — denoiser; the paper's TensorFlow column is approximate by
	// construction.
	ConvDenoise bool
	// ConvSigma is the Gaussian σ for ConvDenoise (default 1.0).
	ConvSigma float64
}

// RunTF executes the TensorFlow implementation: master-side ingest, a
// filter step paying flatten/reshape passes (selection is only supported
// along the first tensor dimension), per-subject mean steps, a simplified
// threshold mask on the master, and unmasked convolution-style denoising —
// mirroring Section 4.5 and Figure 9.
func RunTF(w *Workload, cl *cluster.Cluster, model *cost.Model, opts TFOpts) (*TFResult, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := tfgraph.NewSession(cl, w.Store, model)
	volBytes := synth.PaperVolBytes
	b0 := w.Grad.B0Mask(50)

	type volItem struct {
		subj, t int
		vol     *volume.V3
	}
	items, _, err := sess.Ingest("neuro/npy/", func(obj objstore.Object) ([]tfgraph.Tensor, error) {
		s, t, err := npyKeyIDs(obj.Key)
		if err != nil {
			return nil, err
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil, err
		}
		return []tfgraph.Tensor{{Value: volItem{s, t, v}, Size: volBytes}}, nil
	})
	if err != nil {
		return nil, err
	}
	cl.MarkStage("ingest")

	// Step: filter on the volume ID (the fourth dimension). TensorFlow
	// only filters along the first dimension, so the 4-D tensor is
	// flattened, selected, and reshaped back — four extra full passes
	// (flatten and reshape, each direction).
	filtered, _, err := sess.RunStep("filter-b0", cost.Filter, items,
		tfgraph.StepOpts{Assign: opts.Assign, ConvertPasses: 4},
		func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil })
	if err != nil {
		return nil, err
	}
	cl.MarkStage("filter")
	// Master-side selection of the b0 items after the reshape.
	bySubj := make(map[int][]tfgraph.Tensor)
	for _, it := range filtered {
		vi := it.Value.(volItem)
		if vi.t < len(b0) && b0[vi.t] {
			bySubj[vi.subj] = append(bySubj[vi.subj], it)
		}
	}

	res := &TFResult{Masks: make(map[int]*volume.V3), Denoised: make(map[string]*volume.V3)}

	// Step: per-subject mean via reduce_mean partials on the workers,
	// combined on the master, then the simplified mask (a straight
	// threshold — no median_otsu in TensorFlow).
	for s := 0; s < w.Subjects; s++ {
		group := bySubj[s]
		if len(group) == 0 {
			return nil, fmt.Errorf("neuro/tf: subject %d has no b0 volumes", s)
		}
		partials, _, err := sess.RunStep("mean/"+SubjKey(s), cost.Mean, group, tfgraph.StepOpts{},
			func(t tfgraph.Tensor) (tfgraph.Tensor, error) {
				return t, nil // partial sums; combination happens on the master
			})
		if err != nil {
			return nil, err
		}
		vols := make([]*volume.V3, 0, len(partials))
		for _, p := range partials {
			vols = append(vols, p.Value.(volItem).vol)
		}
		mean := volume.Mean3(vols)
		res.Masks[s] = simplifiedMask(mean)
	}
	cl.MarkStage("mask")

	// Step: denoise every volume, without the mask (element-wise masked
	// assignment is unsupported). With ConvDenoise the step runs the
	// convolutional rewrite instead of non-local means.
	sigma := opts.ConvSigma
	if sigma <= 0 {
		sigma = 1
	}
	denoiseOp := cost.Denoise
	denoiseFn := func(v *volume.V3) *volume.V3 { return imaging.NLMeans3Memo(v, nil, DenoiseOpts) }
	if opts.ConvDenoise {
		// Convolution streams at memory bandwidth, unlike the
		// compute-bound patch search.
		denoiseOp = cost.Mean
		denoiseFn = func(v *volume.V3) *volume.V3 { return imaging.GaussianSmooth3(v, sigma) }
	}
	denoised, _, err := sess.RunStep("denoise", denoiseOp, items, tfgraph.StepOpts{},
		func(t tfgraph.Tensor) (tfgraph.Tensor, error) {
			vi := t.Value.(volItem)
			return tfgraph.Tensor{Value: volItem{vi.subj, vi.t, denoiseFn(vi.vol)}, Size: t.Size}, nil
		})
	if err != nil {
		return nil, err
	}
	cl.MarkStage("denoise")
	for _, it := range denoised {
		vi := it.Value.(volItem)
		res.Denoised[VolKey(vi.subj, vi.t)] = vi.vol
	}
	return res, nil
}

// simplifiedMask is the paper's "somewhat simplified version of the final
// mask generation": threshold the mean volume at its global mean value.
func simplifiedMask(mean *volume.V3) *volume.V3 {
	t := mean.Summarize().Mean
	out := volume.New3(mean.NX, mean.NY, mean.NZ)
	for i, x := range mean.Data {
		if x > t {
			out.Data[i] = 1
		}
	}
	return out
}
