package fits

import (
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
)

// DecodeStaged is DecodeExposure of a staged object, held on the object
// (objstore.Object.Decoded): every engine, cluster size and sweep cell
// that reads one object of one shared survey gets the one decoded
// exposure, to read and never to write. An error is held the same way.
// DecodeExposure holds nothing.
func DecodeStaged(obj objstore.Object) (*skymap.Exposure, error) {
	v, err := obj.Decoded(func(data []byte) (any, error) { return DecodeExposure(data) })
	e, _ := v.(*skymap.Exposure)
	return e, err
}
