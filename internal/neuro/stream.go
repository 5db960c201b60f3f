// Streaming plumbing for the reference pipeline: the fused Step 2N→3N
// stage composition. This is harness-side memory machinery, not
// per-system pipeline code, so it lives outside neuro.go (the file
// Table 1 measures as the reference implementation).

package neuro

import (
	"context"
	"fmt"

	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/volume"
)

// fitRows is the slab height (in z-planes) of the fused denoise→fit
// stream in ReferenceSubject. Any value yields bit-identical results;
// it only sets the streaming granularity.
const fitRows = 1

// ReferenceSubject runs the full pipeline on one subject as a stage
// composition: Step 1N materializes the mask, then Steps 2N and 3N are
// fused — per-volume denoise stages stream z-slab blocks (pooled
// buffers, computed lazily) into the model fit, which consumes one
// slab of every volume at a time and releases it. The denoised series
// is never materialized, so the subject's working set is its input
// plus O(T · fitRows) planes; every voxel is computed by the same
// expression in the same order as the materialized form, so mask and
// FA are bit-identical to it.
func ReferenceSubject(g *dmri.GradTable, data *volume.V4) (*SubjectResult, error) {
	// Step 1N: segmentation.
	b0 := data.Select(g.B0Mask(50))
	mask := Segment(b0.Vols)
	// Steps 2N+3N: one denoise stream per volume, fit slab by slab.
	ctx := context.Background()
	nx, ny, nz := data.Shape()
	dens := make([]volume.Stream, data.T())
	for t, v := range data.Vols {
		dens[t] = imaging.NLMeans3Stream(ctx, v, mask, DenoiseOpts, volume.Scratch, fitRows)
	}
	fa := volume.New3(nx, ny, nz)
	slabs := make([]*volume.V3, data.T())
	blocks := make([]volume.BlockVol, data.T())
	for _, b := range volume.TileZ(nz, fitRows) {
		for t, d := range dens {
			bv, ok := d.Next()
			if !ok || bv.B != b {
				for _, d := range dens {
					volume.Drain(d)
				}
				return nil, fmt.Errorf("neuro: denoise stream out of step at z=%d", b.Z0)
			}
			blocks[t], slabs[t] = bv, bv.V
		}
		faSlab, err := dmri.FitFA(g, volume.New4(slabs), mask.Slab(b))
		for t := range blocks {
			blocks[t].Release()
		}
		if err != nil {
			for _, d := range dens {
				volume.Drain(d)
			}
			return nil, err
		}
		volume.InsertBlock(fa, b, faSlab)
	}
	return &SubjectResult{Mask: mask, FA: fa}, nil
}
