package skymap

import (
	"math"

	"imagebench/internal/imaging"
	"imagebench/internal/memo"
)

// CoaddPatchMemo is CoaddPatch behind the process-wide memo (package
// memo, kind memo.Coadd): one stack co-added once, however many engines
// and cluster sizes assemble it. The stack is built first (a deferred
// piece's planes) and keyed by each piece's patch, shape and raw flux
// and validity planes, all CoaddPatch reads. The coadd is shared, to
// read and never to write; an error is returned on every call and never
// stored. CoaddPatch never consults the table.
func CoaddPatchMemo(stack []*PatchExposure, nsigma float64, iters int) (*Coadd, error) {
	stack, err := build(stack)
	if err != nil {
		return nil, err
	}
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

// KeyExposure adds e to k: its lineage when the memo handed it out and
// still holds it (Hasher.Origin), or else its header and the raw bits of
// its three planes.
func KeyExposure(k *memo.Hasher, e *Exposure) {
	if !k.Origin(e) {
		for _, x := range [...]int{e.Visit, e.Sensor, e.X0, e.Y0} {
			k.U64(uint64(x))
		}
		imaging.KeyImage(k, e.Flux)
		imaging.KeyImage(k, e.Var)
		k.Bytes(e.Mask)
	}
}
