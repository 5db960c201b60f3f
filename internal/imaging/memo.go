package imaging

import (
	"math"

	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// NLMeans3Memo is NLMeans3 behind the process-wide memo (package memo,
// kind memo.NLMeans): bit-identical output, computed once per distinct
// input content. The key covers the shape and raw bits of v and of mask
// (a nil mask is its own key, not an all-ones mask) and the options the
// output depends on — not Workers, which never changes a bit of it.
// The result is held by the memo and shared with every caller on the
// key, to read and never to write; the inputs are not retained.
//
// NLMeans3, NLMeans3Ctx and NLMeans3Stream never consult the table.
func NLMeans3Memo(v, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	opts = opts.withDefaults()
	k := memo.NewKey(memo.NLMeans)
	k.Volume(v)
	k.Volume(mask)
	k.U64(uint64(opts.PatchRadius))
	k.U64(uint64(opts.SearchRadius))
	k.U64(math.Float64bits(opts.H))
	out, _ := k.Shared(func() (any, int64, error) {
		out := NLMeans3(v, mask, opts)
		return out, out.Bytes(), nil
	})
	return out.(*volume.V3)
}

// MedianOtsuMemo is MedianFilter3 then OtsuMask — Step 1N after the
// mean — behind the same memo (kind memo.Mask): the mask every engine,
// cluster size and experiment derives from one subject's mean b0
// volume, computed once per distinct mean. The key covers the shape
// and raw bits of mean and the radius; the mask is shared, to read and
// never to write. MedianFilter3, MedianFilter3Into and OtsuMask never
// consult the table.
func MedianOtsuMemo(mean *volume.V3, radius int) *volume.V3 {
	k := memo.NewKey(memo.Mask)
	k.Volume(mean)
	k.U64(uint64(radius))
	out, _ := k.Shared(func() (any, int64, error) {
		smoothed := volume.Scratch.Get(mean.NX, mean.NY, mean.NZ)
		MedianFilter3Into(smoothed, mean, radius)
		mask := OtsuMask(smoothed)
		volume.Scratch.Put(smoothed)
		return mask, mask.Bytes(), nil
	})
	return out.(*volume.V3)
}

// KeyImage adds a 2-D image to a memo key as Hasher.Volume adds a
// volume: its shape, then the raw bits of every pixel.
func KeyImage(k *memo.Hasher, im *Image) {
	k.U64(uint64(im.W))
	k.U64(uint64(im.H))
	k.Floats(im.Pix)
}
