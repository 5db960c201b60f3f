package imaging

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"imagebench/internal/volume"
)

// naivePatchDist2 is the original clamped triple loop, kept as the
// reference the optimized patchDist2 must match bit-for-bit.
func naivePatchDist2(v *volume.V3, x, y, z, cx, cy, cz, r int) float64 {
	var sum float64
	var n int
	for pz := -r; pz <= r; pz++ {
		for py := -r; py <= r; py++ {
			for px := -r; px <= r; px++ {
				ax, ay, az := clamp(x+px, v.NX), clamp(y+py, v.NY), clamp(z+pz, v.NZ)
				bx, by, bz := clamp(cx+px, v.NX), clamp(cy+py, v.NY), clamp(cz+pz, v.NZ)
				d := v.At(ax, ay, az) - v.At(bx, by, bz)
				sum += d * d
				n++
			}
		}
	}
	return sum / float64(n)
}

// TestPatchDist2FastPathExact proves the interior fast path is
// bit-identical to the clamped reference: the NLMeans results feed
// deterministic, content-addressed experiment tables, so even
// last-ulp drift would be a cache-key regression.
func TestPatchDist2FastPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := volume.New3(9, 8, 7)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	for r := 1; r <= 2; r++ {
		for trial := 0; trial < 2000; trial++ {
			x, y, z := rng.Intn(v.NX), rng.Intn(v.NY), rng.Intn(v.NZ)
			cx, cy, cz := rng.Intn(v.NX), rng.Intn(v.NY), rng.Intn(v.NZ)
			got := patchDist2(v, x, y, z, cx, cy, cz, r)
			want := naivePatchDist2(v, x, y, z, cx, cy, cz, r)
			if got != want {
				t.Fatalf("patchDist2(%d,%d,%d ~ %d,%d,%d, r=%d) = %v, want %v (exact)",
					x, y, z, cx, cy, cz, r, got, want)
			}
		}
	}
}

// TestNLMeans3WindowClampExact pins the whole denoiser: the clamped
// search window and fast patch distance must reproduce the original
// implementation exactly, including at volume boundaries.
func TestNLMeans3WindowClampExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := volume.New3(10, 9, 8)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	got := NLMeans3(v, nil, NLMeansOpts{})
	want := naiveNLMeans3(v, nil, NLMeansOpts{})
	if !got.SameShape(want) {
		t.Fatal("shape mismatch")
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("voxel %d: %v != %v (must be bit-identical)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestNLMeans3WorkersExact proves the tiled parallel path is
// byte-identical to the sequential reference across randomized volume
// sizes, mask patterns, and worker counts — including workers=1 and
// workers far beyond the tile count.
func TestNLMeans3WorkersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		nx, ny, nz := 3+rng.Intn(10), 3+rng.Intn(9), 1+rng.Intn(11)
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = 50 + 20*rng.NormFloat64()
		}
		// Mask pattern: nil (unmasked), random sparse, or all-zero.
		var mask *volume.V3
		switch trial % 3 {
		case 1:
			mask = volume.New3(nx, ny, nz)
			for i := range mask.Data {
				if rng.Intn(3) == 0 {
					mask.Data[i] = 1
				}
			}
		case 2:
			mask = volume.New3(nx, ny, nz) // all background
		}
		opts := NLMeansOpts{PatchRadius: 1 + rng.Intn(2), SearchRadius: 1 + rng.Intn(2)}
		want := naiveNLMeans3(v, mask, opts)
		for _, workers := range []int{0, 1, 2, 3, 7, nz, nz + 13, 64} {
			opts.Workers = workers
			got := NLMeans3(v, mask, opts)
			if !got.SameShape(want) {
				t.Fatalf("trial %d workers=%d: shape mismatch", trial, workers)
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d (%dx%dx%d) workers=%d: voxel %d = %v, want %v (must be bit-identical)",
						trial, nx, ny, nz, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// naiveSeparableConv3 is the pre-optimization separable convolution:
// one freshly allocated volume per 1-D pass, sequential. The parallel
// scratch-reusing path must reproduce it bit-for-bit.
func naiveSeparableConv3(v *volume.V3, kx, ky, kz []float64) *volume.V3 {
	conv := func(u *volume.V3, kernel []float64, ax axis) *volume.V3 {
		out := volume.New3(u.NX, u.NY, u.NZ)
		convAxisInto(out, u, kernel, ax, 0, u.NZ)
		return out
	}
	out := conv(v, kx, axisX)
	out = conv(out, ky, axisY)
	return conv(out, kz, axisZ)
}

// TestSeparableConv3WorkersExact pins the parallel convolution against
// the sequential reference across randomized sizes, kernels, and
// GOMAXPROCS settings, including more Ps than tiles.
func TestSeparableConv3WorkersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randKernel := func() []float64 {
		k := GaussianKernel(0.4 + rng.Float64()*1.2)
		return k
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for trial := 0; trial < 12; trial++ {
		nx, ny, nz := 2+rng.Intn(12), 2+rng.Intn(11), 1+rng.Intn(10)
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = rng.NormFloat64()
		}
		kx, ky, kz := randKernel(), randKernel(), randKernel()
		want := naiveSeparableConv3(v, kx, ky, kz)
		for _, procs := range []int{1, 2, 5, nz + 17, 64} {
			runtime.GOMAXPROCS(procs)
			got := SeparableConv3(v, kx, ky, kz)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d (%dx%dx%d) GOMAXPROCS=%d: voxel %d = %v, want %v (must be bit-identical)",
						trial, nx, ny, nz, procs, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// naiveNLMeans3 is the pre-optimization denoiser loop.
func naiveNLMeans3(v *volume.V3, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	opts = opts.withDefaults()
	h := opts.H
	if h <= 0 {
		h = 0.7 * v.Summarize().Std
		if h == 0 {
			h = 1
		}
	}
	h2 := h * h
	pr, sr := opts.PatchRadius, opts.SearchRadius
	out := v.Clone()
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				if mask != nil && mask.At(x, y, z) == 0 {
					continue
				}
				var wsum, vsum float64
				for dz := -sr; dz <= sr; dz++ {
					for dy := -sr; dy <= sr; dy++ {
						for dx := -sr; dx <= sr; dx++ {
							cx, cy, cz := x+dx, y+dy, z+dz
							if cx < 0 || cx >= v.NX || cy < 0 || cy >= v.NY || cz < 0 || cz >= v.NZ {
								continue
							}
							d2 := naivePatchDist2(v, x, y, z, cx, cy, cz, pr)
							w := math.Exp(-d2 / h2)
							wsum += w
							vsum += w * v.At(cx, cy, cz)
						}
					}
				}
				if wsum > 0 {
					out.Set(x, y, z, vsum/wsum)
				}
			}
		}
	}
	return out
}
