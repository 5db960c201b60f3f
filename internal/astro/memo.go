package astro

import (
	"unsafe"

	"imagebench/internal/imaging"
	"imagebench/internal/memo"
	"imagebench/internal/skymap"
)

// The engine models' Steps 1A and 4A behind the process-wide memo
// (package memo): they run the reference's kernels on a survey every
// engine, cluster size and sweep cell shares, and only the cost model
// tells their runs apart. Results are shared, to read and never to
// write. Preprocess, Detect, Reference and the exposure loaders never
// consult the table.

// PreprocessMemo is Preprocess, computed once per exposure (kind
// memo.Calibrate). An exposure fits.DecodeStaged handed out is keyed by
// its lineage, the staged object's digest; any other by its header and
// the raw bits of its three planes (skymap.KeyExposure).
func PreprocessMemo(e *skymap.Exposure) *skymap.Exposure {
	k := memo.NewKey(memo.Calibrate)
	skymap.KeyExposure(k, e)
	v, _ := k.Shared(func() (any, int64, error) {
		out := Preprocess(e)
		return out, out.Bytes(), nil
	})
	return v.(*skymap.Exposure)
}

// DetectMemo is Detect, computed once per coadd (kind memo.Detect). A
// coadd skymap.CoaddPatchMemo handed out is keyed by its lineage; any
// other by its flux plane, the only one Detect reads.
func DetectMemo(co *skymap.Coadd) []imaging.Source {
	k := memo.NewKey(memo.Detect)
	if !k.Origin(co) {
		imaging.KeyImage(k, co.Flux)
	}
	v, _ := k.Shared(func() (any, int64, error) {
		found := Detect(co)
		return &found, int64(len(found)) * int64(unsafe.Sizeof(imaging.Source{})), nil
	})
	return *v.(*[]imaging.Source)
}
