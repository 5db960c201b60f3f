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
// The result is always a fresh volume the caller owns, and the inputs
// are not retained.
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
	out, _, _ := k.Do(func() (*volume.V3, int64, error) {
		return NLMeans3(v, mask, opts), 0, nil
	})
	return out
}

// MedianOtsuMemo is MedianFilter3 then OtsuMask — Step 1N after the
// mean — behind the same memo (kind memo.Mask): the mask every engine,
// cluster size and experiment derives from one subject's mean b0
// volume, computed once per distinct mean. The key covers the shape
// and raw bits of mean and the radius; the result is a fresh mask the
// caller owns. MedianFilter3, MedianFilter3Into and OtsuMask never
// consult the table.
func MedianOtsuMemo(mean *volume.V3, radius int) *volume.V3 {
	k := memo.NewKey(memo.Mask)
	k.Volume(mean)
	k.U64(uint64(radius))
	out, _, _ := k.Do(func() (*volume.V3, int64, error) {
		smoothed := volume.Scratch.Get(mean.NX, mean.NY, mean.NZ)
		MedianFilter3Into(smoothed, mean, radius)
		mask := OtsuMask(smoothed)
		volume.Scratch.Put(smoothed)
		return mask, 0, nil
	})
	return out
}

// KeyImage adds a 2-D image to a memo key as Hasher.Volume adds a
// volume: its shape, then the raw bits of every pixel.
func KeyImage(k *memo.Hasher, im *Image) {
	k.U64(uint64(im.W))
	k.U64(uint64(im.H))
	k.Floats(im.Pix)
}
