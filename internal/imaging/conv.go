package imaging

import (
	"context"
	"math"

	"imagebench/internal/fan"
	"imagebench/internal/volume"
)

// 3-D convolution. The paper's TensorFlow implementation could not
// express non-local means and "rewrote Step 2N using convolutions"
// (Section 4.5): a Gaussian smoothing pass expressed as tensor ops.
// Separable evaluation applies the 1-D kernel along each axis in turn —
// the form a dataflow engine would run it in — and is mathematically
// identical to the dense 3-D product kernel.

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation, truncated at ±3σ (at least radius 1).
func GaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// axis identifies a convolution direction.
type axis int

const (
	axisX axis = iota
	axisY
	axisZ
)

// convAxisInto convolves v with the 1-D kernel along one axis, clamping
// at the borders (replicate padding), writing the z-planes [z0,z1) of
// dst, which has v's shape and must not alias it.
func convAxisInto(dst, v *volume.V3, kernel []float64, ax axis, z0, z1 int) {
	r := len(kernel) / 2
	for z := z0; z < z1; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				var acc float64
				for k := -r; k <= r; k++ {
					xx, yy, zz := x, y, z
					switch ax {
					case axisX:
						xx = clamp(x+k, v.NX)
					case axisY:
						yy = clamp(y+k, v.NY)
					case axisZ:
						zz = clamp(z+k, v.NZ)
					}
					acc += kernel[k+r] * v.At(xx, yy, zz)
				}
				dst.Set(x, y, z, acc)
			}
		}
	}
}

// SeparableConv3 convolves v with the outer product kernel kx⊗ky⊗kz,
// evaluated as three 1-D passes. Each pass hands its z-planes to
// fan.Each, as NLMeans3 does, and barriers before the next, because the
// Y and Z passes read planes the previous pass wrote; the output is
// bit-identical for any split.
// The two intermediate volumes come from the shared scratch arena, so a
// call allocates only the output volume in steady state.
func SeparableConv3(v *volume.V3, kx, ky, kz []float64) *volume.V3 {
	a := volume.Scratch.Get(v.NX, v.NY, v.NZ)
	defer volume.Scratch.Put(a)
	b := volume.Scratch.Get(v.NX, v.NY, v.NZ)
	defer volume.Scratch.Put(b)
	out := volume.New3(v.NX, v.NY, v.NZ)
	for _, p := range []struct {
		dst, src *volume.V3
		kernel   []float64
		ax       axis
	}{
		{a, v, kx, axisX},
		{b, a, ky, axisY},
		{out, b, kz, axisZ},
	} {
		_ = fan.Each(context.Background(), v.NZ, 0, func(z int) error {
			convAxisInto(p.dst, p.src, p.kernel, p.ax, z, z+1)
			return nil
		})
	}
	return out
}

// Conv3 convolves v with a dense 3-D kernel (odd-sized in each
// dimension), clamping at the borders. It is the reference for
// SeparableConv3 and supports non-separable kernels.
func Conv3(v *volume.V3, kernel [][][]float64) *volume.V3 {
	rz := len(kernel) / 2
	ry := len(kernel[0]) / 2
	rx := len(kernel[0][0]) / 2
	out := volume.New3(v.NX, v.NY, v.NZ)
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				var acc float64
				for dz := -rz; dz <= rz; dz++ {
					for dy := -ry; dy <= ry; dy++ {
						for dx := -rx; dx <= rx; dx++ {
							w := kernel[dz+rz][dy+ry][dx+rx]
							acc += w * v.At(clamp(x+dx, v.NX), clamp(y+dy, v.NY), clamp(z+dz, v.NZ))
						}
					}
				}
				out.Set(x, y, z, acc)
			}
		}
	}
	return out
}

// GaussianSmooth3 is the convolution-based denoiser the paper's
// TensorFlow implementation substitutes for non-local means: an
// isotropic Gaussian blur, unmasked (TensorFlow cannot apply the mask,
// Section 5.2.3).
func GaussianSmooth3(v *volume.V3, sigma float64) *volume.V3 {
	k := GaussianKernel(sigma)
	return SeparableConv3(v, k, k, k)
}
