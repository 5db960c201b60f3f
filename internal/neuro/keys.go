package neuro

import (
	"fmt"

	"imagebench/internal/synth"
)

// npyKeyIDs reads a staged .npy key (synth.NeuroKeyNPY) and niftiKeyID a
// staged NIfTI key (synth.NeuroKeyNIfTI).
func npyKeyIDs(key string) (subject, vol int, err error) {
	if !synth.ScanKey(key, "neuro/npy/subj-###/vol-###.npy", &subject, &vol) {
		return 0, 0, fmt.Errorf("neuro: bad npy key %q", key)
	}
	return subject, vol, nil
}

func niftiKeyID(key string) (subject int, err error) {
	if !synth.ScanKey(key, "neuro/nii/subj-###.nii", &subject) {
		return 0, fmt.Errorf("neuro: bad nifti key %q", key)
	}
	return subject, nil
}

// pieceBlock is the fit key, s###/b##, of the block a Myria piece key
// s###/b##/t### belongs to.
func pieceBlock(key string) string {
	var s, b, t int
	synth.ScanKey(key, "s###/b##/t###", &s, &b, &t)
	return synth.FormatKey("s###/b##", s, b)
}
