// Package synth generates the synthetic datasets that stand in for the
// paper's inputs: Human-Connectome-style diffusion MRI subjects (NIfTI) and
// HiTS-style sky survey visits (FITS), written into the object store with
// paper-scale size annotations. The generated arrays are small, but every
// object declares the size its real counterpart has, and the cost model
// charges by that size, so modeled runtimes land in the paper's regime
// while generating the inputs stays cheap.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"imagebench/internal/dmri"
	"imagebench/internal/nifti"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/volume"
)

// Paper-scale constants for the neuroscience dataset (HCP S900 release,
// Section 3.1.1 of the paper).
const (
	PaperVolNX, PaperVolNY, PaperVolNZ = 145, 145, 174
	PaperVolsPerSubject                = 288
	PaperB0PerSubject                  = 18
	// PaperVolBytes is one 3-D volume as float32.
	PaperVolBytes = int64(PaperVolNX*PaperVolNY*PaperVolNZ) * 4
	// PaperSubjectBytes is the uncompressed 4-D array (~4.2 GB).
	PaperSubjectBytes = PaperVolBytes * PaperVolsPerSubject
)

// NeuroConfig controls the scaled synthetic dMRI dataset.
type NeuroConfig struct {
	Subjects int
	NX, NY   int
	NZ       int
	T        int // volumes per subject
	B0       int // non-diffusion-weighted volumes among T
	Seed     int64
}

// DefaultNeuro returns the scaled default geometry: 12×12×14 voxels,
// 12 volumes (2 b0) per subject — the same 16:1 b0 ratio as the HCP data.
func DefaultNeuro(subjects int) NeuroConfig {
	return NeuroConfig{Subjects: subjects, NX: 12, NY: 12, NZ: 14, T: 12, B0: 2, Seed: 1}
}

// NeuroKeyNIfTI returns the object key of a subject's 4-D NIfTI file.
func NeuroKeyNIfTI(subject int) string { return fmt.Sprintf("neuro/nii/subj-%03d.nii", subject) }

// NeuroKeyNPY returns the object key of one staged per-volume NumPy array,
// the format the paper pre-converts to for Spark and Myria.
func NeuroKeyNPY(subject, vol int) string {
	return fmt.Sprintf("neuro/npy/subj-%03d/vol-%03d.npy", subject, vol)
}

// SubjectModelBytes is the paper-scale size of one scaled subject: each
// scaled volume stands for one full 145×145×174 volume, so a subject with
// T volumes models T paper volumes (the 288-volume HCP subject is
// represented proportionally).
func (c NeuroConfig) SubjectModelBytes() int64 { return PaperVolBytes * int64(c.T) }

// GradTable builds the acquisition scheme for a config: B0 volumes with
// b=0 followed by diffusion-weighted volumes with b=1000 and directions on
// a golden-spiral sphere covering.
func (c NeuroConfig) GradTable() *dmri.GradTable {
	g := &dmri.GradTable{}
	golden := math.Pi * (3 - math.Sqrt(5))
	nDW := c.T - c.B0
	for i := 0; i < c.T; i++ {
		if i < c.B0 {
			g.BVals = append(g.BVals, 0)
			g.BVecs = append(g.BVecs, [3]float64{0, 0, 0})
			continue
		}
		k := i - c.B0
		z := 1 - 2*(float64(k)+0.5)/float64(nDW)
		r := math.Sqrt(1 - z*z)
		th := golden * float64(k)
		g.BVals = append(g.BVals, 1000)
		g.BVecs = append(g.BVecs, [3]float64{r * math.Cos(th), r * math.Sin(th), z})
	}
	return g
}

// GenNeuro writes c.Subjects synthetic dMRI subjects into the store, both
// as per-subject NIfTI files and as staged per-volume .npy objects, each
// annotated with paper-scale sizes. It returns the shared gradient table.
//
// The phantom has an ellipsoidal "brain" whose b0 signal is bright against
// the background (so Otsu segmentation is meaningful), an anisotropic
// band through the middle (so the fitted FA map has structure), and
// additive Gaussian noise (so denoising is meaningful).
func GenNeuro(store *objstore.Store, c NeuroConfig) (*dmri.GradTable, error) {
	return StreamNeuro(c, func(s int, v4 *volume.V4) error {
		store.Put(NeuroKeyNIfTI(s), nifti.Encode4(v4), c.SubjectModelBytes())
		for t, v := range v4.Vols {
			store.Put(NeuroKeyNPY(s, t), npy.Encode(v), PaperVolBytes)
		}
		return nil
	})
}

// StreamNeuro generates subjects one at a time and hands each to fn as
// it is produced, so only one subject's volumes are live at once
// regardless of c.Subjects. The volumes come from the shared scratch
// arena and are recycled after fn returns: fn must finish with v4 (or
// copy what it keeps) before returning, and must not retain it.
// Generation is per-subject deterministic, so the sequence of subjects
// is identical to what GenNeuro stores.
func StreamNeuro(c NeuroConfig, fn func(subject int, v4 *volume.V4) error) (*dmri.GradTable, error) {
	if c.Subjects <= 0 || c.T <= c.B0 || c.B0 <= 0 {
		return nil, fmt.Errorf("synth: invalid neuro config %+v", c)
	}
	g := c.GradTable()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for s := 0; s < c.Subjects; s++ {
		v4 := genSubject(c, g, s, volume.Scratch)
		err := fn(s, v4)
		for _, v := range v4.Vols {
			volume.Scratch.Put(v)
		}
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// genSubject builds one subject's 4-D series in arena-backed volumes.
func genSubject(c NeuroConfig, g *dmri.GradTable, subject int, arena *volume.Arena) *volume.V4 {
	rng := rand.New(rand.NewSource(c.Seed + int64(subject)*7919))
	cx, cy, cz := float64(c.NX-1)/2, float64(c.NY-1)/2, float64(c.NZ-1)/2
	rx, ry, rz := float64(c.NX)*0.38, float64(c.NY)*0.38, float64(c.NZ)*0.38
	const s0Brain, s0Bg, noiseStd = 1000.0, 40.0, 25.0

	vols := make([]*volume.V3, c.T)
	for t := range vols {
		// Every voxel is assigned below, so dirty pooled buffers are fine.
		vols[t] = arena.Get(c.NX, c.NY, c.NZ)
	}
	for z := 0; z < c.NZ; z++ {
		for y := 0; y < c.NY; y++ {
			for x := 0; x < c.NX; x++ {
				dx, dy, dz := (float64(x)-cx)/rx, (float64(y)-cy)/ry, (float64(z)-cz)/rz
				inBrain := dx*dx+dy*dy+dz*dz <= 1
				// Anisotropic band: a slab in y around the center where
				// diffusion is strongly directional along x.
				inBand := inBrain && math.Abs(float64(y)-cy) < float64(c.NY)/6
				var dTensor dmri.Tensor
				switch {
				case inBand:
					dTensor = dmri.Tensor{Dxx: 1.7e-3, Dyy: 0.2e-3, Dzz: 0.2e-3}
				case inBrain:
					dTensor = dmri.Tensor{Dxx: 0.8e-3, Dyy: 0.8e-3, Dzz: 0.8e-3}
				}
				for t := 0; t < c.T; t++ {
					var signal float64
					if inBrain {
						b := g.BVals[t]
						gv := g.BVecs[t]
						q := dTensor.Dxx*gv[0]*gv[0] + dTensor.Dyy*gv[1]*gv[1] + dTensor.Dzz*gv[2]*gv[2] +
							2*(dTensor.Dxy*gv[0]*gv[1]+dTensor.Dxz*gv[0]*gv[2]+dTensor.Dyz*gv[1]*gv[2])
						signal = s0Brain * math.Exp(-b*q)
					} else {
						signal = s0Bg
					}
					signal += rng.NormFloat64() * noiseStd
					if signal < 0 {
						signal = 0
					}
					// Quantize to float32: the HCP data is float32, and the
					// NIfTI and .npy stagings must hold identical values so
					// every implementation sees the same input.
					vols[t].Set(x, y, z, float64(float32(signal)))
				}
			}
		}
	}
	return volume.New4(vols)
}
