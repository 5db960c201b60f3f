package neuro

import (
	"fmt"

	"imagebench/internal/nifti"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// decodeNIfTI parses a staged subject NIfTI object and decodeNPY a
// staged per-volume .npy object, each held on the object
// (objstore.Object.Decoded): every engine and experiment that reads one
// object gets the one decoded value, to read and never to write. An
// error is held the same way.
func decodeNIfTI(obj objstore.Object) (*volume.V4, error) {
	return decodeHeld[*volume.V4](obj, func(b []byte) (any, error) { return nifti.Decode4(b) })
}

func decodeNPY(obj objstore.Object) (*volume.V3, error) {
	return decodeHeld[*volume.V3](obj, func(b []byte) (any, error) { return npy.Decode(b) })
}

func decodeHeld[V any](obj objstore.Object, decode func([]byte) (any, error)) (V, error) {
	v, err := obj.Decoded(decode)
	if err != nil {
		var none V
		return none, fmt.Errorf("neuro: decoding %s: %w", obj.Key, err)
	}
	return v.(V), nil
}

// decodeNIfTIArena decodes a subject into volumes drawn from arena, not
// held on the object, for the pipelines that recycle a subject's input
// once it is reduced: no held value ever goes to an arena.
func decodeNIfTIArena(obj objstore.Object, arena *volume.Arena) (*volume.V4, error) {
	v4, err := nifti.Decode4Arena(obj.Data, arena)
	if err != nil {
		return nil, fmt.Errorf("neuro: decoding %s: %w", obj.Key, err)
	}
	return v4, nil
}

// TFMask is RunTF's mask of subject s by its rule: simplifiedMask of the
// b0 mean in volume order, as RunTF combines them, decoded afresh.
func TFMask(w *Workload, s int) (*volume.V3, error) {
	obj, err := w.Store.Get(synth.NeuroKeyNIfTI(s))
	if err != nil {
		return nil, err
	}
	data, err := decodeNIfTIArena(obj, nil)
	if err != nil {
		return nil, err
	}
	return simplifiedMask(volume.Mean3(data.Select(w.Grad.B0Mask(50)).Vols)), nil
}
