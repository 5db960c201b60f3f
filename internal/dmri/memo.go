package dmri

import (
	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// FitFAMemo is FitFA behind the process-wide memo (package memo, kind
// memo.Fit): the same FA map, fitted once per distinct input content.
// The key covers the raw bits of the gradient table, the shape and raw
// bits of every volume in order, and the mask (a nil mask is its own
// key). The FA map is shared, to read and never to write; an error is
// returned on every call and never stored. FitFA never consults the
// table.
func FitFAMemo(g *GradTable, vols *volume.V4, mask *volume.V3) (*volume.V3, error) {
	k := memo.NewKey(memo.Fit)
	k.Floats(g.BVals)
	k.U64(uint64(len(g.BVecs)))
	for _, b := range g.BVecs {
		k.Floats(b[:])
	}
	k.U64(uint64(len(vols.Vols)))
	for _, v := range vols.Vols {
		k.Volume(v)
	}
	k.Volume(mask)
	v, err := k.Shared(func() (any, int64, error) {
		fa, err := FitFA(g, vols, mask)
		if err != nil {
			return nil, 0, err
		}
		return fa, fa.Bytes(), nil
	})
	fa, _ := v.(*volume.V3)
	return fa, err
}
