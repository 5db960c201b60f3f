package neuro

import (
	"fmt"

	"imagebench/internal/memo"
	"imagebench/internal/nifti"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/volume"
)

// decodeNIfTI parses a staged subject NIfTI object and decodeNPY a
// staged per-volume .npy object, each once per object in the process
// (kind memo.Load): every engine and experiment that reads one object
// gets the one decoded value, to read and never to write. The key is
// the object's digest, which the store computes once per object. An
// error is returned on every call and never stored.
func decodeNIfTI(obj objstore.Object) (*volume.V4, error) { return decodeHeld(obj, 4, nifti.Decode4) }

func decodeNPY(obj objstore.Object) (*volume.V3, error) { return decodeHeld(obj, 3, npy.Decode) }

// decodeHeld keys obj by its digest and the rank it decodes to.
func decodeHeld[V interface{ Bytes() int64 }](obj objstore.Object, rank uint64, decode func([]byte) (V, error)) (V, error) {
	k := memo.NewKey(memo.Load)
	sum := obj.Digest()
	k.Bytes(sum[:])
	k.U64(rank)
	v, err := k.Shared(func() (any, int64, error) {
		v, err := decode(obj.Data)
		if err != nil {
			return nil, 0, err
		}
		return v, v.Bytes(), nil
	})
	if err != nil {
		var none V
		return none, fmt.Errorf("neuro: decoding %s: %w", obj.Key, err)
	}
	return v.(V), nil
}

// decodeNIfTIArena decodes a subject into volumes drawn from arena,
// outside the memo, for the pipelines that recycle a subject's input
// once it is reduced: no value the memo holds ever goes to an arena.
func decodeNIfTIArena(obj objstore.Object, arena *volume.Arena) (*volume.V4, error) {
	v4, err := nifti.Decode4Arena(obj.Data, arena)
	if err != nil {
		return nil, fmt.Errorf("neuro: decoding %s: %w", obj.Key, err)
	}
	return v4, nil
}
