// Package neuro implements the paper's neuroscience use case (Section
// 3.1): a three-step diffusion-MRI pipeline — Step 1N segmentation
// (b0 filter → mean → Otsu mask), Step 2N non-local-means denoising, and
// Step 3N diffusion-tensor-model fitting producing a fractional-anisotropy
// map per subject — as a single-node reference implementation plus one
// implementation per evaluated engine, mirroring the paper's code
// structure for each system (Figures 5–9).
package neuro

import (
	"fmt"
	"strconv"
	"strings"

	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// Workload bundles everything an implementation needs: the object store
// with staged data, the acquisition scheme, and the geometry.
type Workload struct {
	Store    *objstore.Store
	Grad     *dmri.GradTable
	Cfg      synth.NeuroConfig
	Subjects int
	// Blocks is the number of voxel slabs the model-fit step partitions
	// each subject into (the paper's repart operation).
	Blocks int
}

// NewWorkload generates the synthetic dataset for n subjects and returns
// the workload description.
func NewWorkload(n int) (*Workload, error) {
	return NewWorkloadCfg(synth.DefaultNeuro(n))
}

// NewWorkloadCfg is NewWorkload with explicit geometry.
func NewWorkloadCfg(cfg synth.NeuroConfig) (*Workload, error) {
	store := objstore.New()
	g, err := synth.GenNeuro(store, cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Store: store, Grad: g, Cfg: cfg, Subjects: cfg.Subjects, Blocks: 4}, nil
}

// InputModelBytes returns the paper-scale input size.
func (w *Workload) InputModelBytes() int64 {
	return w.Cfg.SubjectModelBytes() * int64(w.Subjects)
}

// LargestIntermediateModelBytes returns the paper-scale size of the
// largest intermediate relation: the denoised volumes plus the voxel-block
// re-partitioning, roughly 2× the input (the paper's Fig 10a).
func (w *Workload) LargestIntermediateModelBytes() int64 {
	return 2 * w.InputModelBytes()
}

// SubjectResult is the per-subject output of the pipeline.
type SubjectResult struct {
	Subject int
	Mask    *volume.V3
	FA      *volume.V3
}

// Result is the output of one pipeline run.
type Result struct {
	Subjects map[int]*SubjectResult
}

// VolKey formats the record key for one volume, and ParseVolKey inverts
// it. Engine implementations key records by subject and volume IDs, as
// the paper's Spark/Myria implementations do.
func VolKey(subject, vol int) string { return synth.FormatKey("s###/t###", subject, vol) }

// ParseVolKey extracts the subject and volume from a VolKey.
func ParseVolKey(key string) (subject, vol int, err error) {
	parts := strings.SplitN(key, "/", 2)
	if len(parts) != 2 || len(parts[0]) < 2 || len(parts[1]) < 2 {
		return 0, 0, fmt.Errorf("neuro: bad volume key %q", key)
	}
	s, err := strconv.Atoi(parts[0][1:])
	if err != nil {
		return 0, 0, fmt.Errorf("neuro: bad volume key %q", key)
	}
	t, err := strconv.Atoi(parts[1][1:])
	if err != nil {
		return 0, 0, fmt.Errorf("neuro: bad volume key %q", key)
	}
	return s, t, nil
}

// SubjKey formats a subject-level record key.
func SubjKey(subject int) string { return synth.FormatKey("s###", subject) }

// DenoiseOpts are the non-local-means settings shared by every
// implementation so outputs are comparable.
var DenoiseOpts = imaging.NLMeansOpts{PatchRadius: 1, SearchRadius: 2}

// Segment runs the three sub-steps of Step 1N on a subject's b0 volumes:
// mean across volumes, median smoothing, Otsu threshold. The mean and
// smoothed intermediates live in the shared scratch arena; only the
// returned mask is a fresh allocation.
func Segment(b0 []*volume.V3) *volume.V3 {
	if len(b0) == 0 {
		panic("neuro: segment of no volumes")
	}
	ar := volume.Scratch
	mean := ar.Get(b0[0].NX, b0[0].NY, b0[0].NZ)
	volume.Mean3Into(mean, b0)
	smoothed := ar.Get(mean.NX, mean.NY, mean.NZ)
	imaging.MedianFilter3Into(smoothed, mean, 1)
	ar.Put(mean)
	mask := imaging.OtsuMask(smoothed)
	ar.Put(smoothed)
	return mask
}

// Denoise runs Step 2N on one volume under the mask.
func Denoise(v *volume.V3, mask *volume.V3) *volume.V3 {
	return imaging.NLMeans3(v, mask, DenoiseOpts)
}

// FitBlock runs Step 3N on one voxel slab: vols are the per-volume slabs
// (in gradient-table order) and mask the matching mask slab. It returns
// the FA slab.
func FitBlock(g *dmri.GradTable, vols []*volume.V3, mask *volume.V3) (*volume.V3, error) {
	return dmri.FitFA(g, volume.New4(vols), mask)
}

// Reference runs the single-node reference implementation (the Python +
// Dipy baseline in the paper) for every subject, reading NIfTI files from
// the store. Subjects stream through one at a time: each subject's
// input volumes come from the shared scratch arena and are recycled
// before the next subject is decoded, so the working set is one
// subject, not the dataset.
func Reference(w *Workload) (*Result, error) {
	res := &Result{Subjects: make(map[int]*SubjectResult)}
	ar := volume.Scratch
	for s := 0; s < w.Subjects; s++ {
		obj, err := w.Store.Get(synth.NeuroKeyNIfTI(s))
		if err != nil {
			return nil, err
		}
		data, err := decodeNIfTIArena(obj, ar)
		if err != nil {
			return nil, err
		}
		sr, err := ReferenceSubject(w.Grad, data)
		// The subject result holds only the fresh mask and FA volumes,
		// never the input, so the input can go back to the pool either way.
		for _, v := range data.Vols {
			ar.Put(v)
		}
		if err != nil {
			return nil, err
		}
		sr.Subject = s
		res.Subjects[s] = sr
	}
	return res, nil
}
