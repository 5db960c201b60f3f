package fits

import (
	"imagebench/internal/memo"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
)

// DecodeStaged is DecodeExposure of a staged object behind the
// process-wide memo (package memo, kind memo.Decode): every engine,
// cluster size and sweep cell that reads one object of one shared
// survey gets the one decoded exposure, to read and never to write.
// The key is the object's digest, which the store computes once per
// object, so a hit reads none of the file's bytes. An error is returned
// on every call and never stored. DecodeExposure never consults the
// table.
func DecodeStaged(obj objstore.Object) (*skymap.Exposure, error) {
	k := memo.NewKey(memo.Decode)
	sum := obj.Digest()
	k.Bytes(sum[:])
	v, err := k.Shared(func() (any, int64, error) {
		e, err := DecodeExposure(obj.Data)
		if err != nil {
			return nil, 0, err
		}
		return e, e.Bytes(), nil
	})
	e, _ := v.(*skymap.Exposure)
	return e, err
}
