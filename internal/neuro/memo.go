package neuro

import (
	"imagebench/internal/imaging"
	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// segmentMemo is Segment as the engine models run it: the same mean,
// then the median filter and Otsu threshold through the process-wide
// memo, so the engines, cluster sizes and experiments that segment one
// subject share one run. The mask is bit-identical to Segment's and
// shared, to read and never to write. Segment itself stays pure: the
// reference pipeline, the oracles and the probes call it.
func segmentMemo(b0 []*volume.V3) *volume.V3 {
	mean := volume.Scratch.Get(b0[0].NX, b0[0].NY, b0[0].NZ)
	volume.Mean3Into(mean, b0)
	mask := imaging.MedianOtsuMemo(mean, 1)
	volume.Scratch.Put(mean)
	return mask
}

// blockMemo is volume.ExtractBlock behind the process-wide memo (kind
// memo.Slab): the engines that cut one held volume (a denoised volume,
// a mask) into one block share one slab, to read and never to write,
// and the fit's key over it reads its digest from the memo's index.
func blockMemo(v *volume.V3, b volume.Block) *volume.V3 {
	k := memo.NewKey(memo.Slab)
	k.Volume(v)
	k.U64(uint64(b.Z0))
	k.U64(uint64(b.Z1))
	slab, _ := k.Shared(func() (any, int64, error) {
		slab := volume.ExtractBlock(v, b)
		return slab, slab.Bytes(), nil
	})
	return slab.(*volume.V3)
}
