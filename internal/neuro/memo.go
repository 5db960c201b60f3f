package neuro

import (
	"imagebench/internal/imaging"
	"imagebench/internal/volume"
)

// segmentMemo is Segment as the engine models run it: the same mean,
// then the median filter and Otsu threshold through the process-wide
// memo, so the engines, cluster sizes and experiments that segment one
// subject share one run. The mask is the caller's own and bit-identical
// to Segment's. Segment itself stays pure: the reference pipeline, the
// oracles and the probes call it.
func segmentMemo(b0 []*volume.V3) *volume.V3 {
	mean := volume.Scratch.Get(b0[0].NX, b0[0].NY, b0[0].NZ)
	volume.Mean3Into(mean, b0)
	mask := imaging.MedianOtsuMemo(mean, 1)
	volume.Scratch.Put(mean)
	return mask
}
