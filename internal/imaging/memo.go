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
