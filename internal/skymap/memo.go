package skymap

import (
	"math"

	"imagebench/internal/imaging"
	"imagebench/internal/memo"
)

// CoaddPatchMemo is CoaddPatch behind the process-wide memo (package
// memo, kind memo.Coadd): one stack co-added once, however many engines
// and cluster sizes assemble it. The stack's pieces are built fresh by
// every run (AssemblePatches merges into them), so the key is content:
// the clipping parameters and, per piece in order, the patch, the shape
// and the raw flux and validity planes, which is all CoaddPatch reads.
// The coadd is shared, to read and never to write; an error is returned
// on every call and never stored. CoaddPatch never consults the table.
func CoaddPatchMemo(stack []*PatchExposure, nsigma float64, iters int) (*Coadd, error) {
	k := memo.NewKey(memo.Coadd)
	k.U64(math.Float64bits(nsigma))
	k.U64(uint64(iters))
	k.U64(uint64(len(stack)))
	for _, pe := range stack {
		k.U64(uint64(pe.Patch.PX))
		k.U64(uint64(pe.Patch.PY))
		imaging.KeyImage(k, pe.Flux)
		k.Bools(pe.Valid)
	}
	v, err := k.Shared(func() (any, int64, error) {
		co, err := CoaddPatch(stack, nsigma, iters)
		if err != nil {
			return nil, 0, err
		}
		return co, co.Flux.Bytes() + co.NVisits.Bytes(), nil
	})
	co, _ := v.(*Coadd)
	return co, err
}
