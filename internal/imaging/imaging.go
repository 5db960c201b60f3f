// Package imaging implements the image-processing algorithms both use
// cases invoke: Otsu thresholding and median filtering (segmentation),
// 3-D non-local means (denoising), sigma-clipped background estimation,
// cosmic-ray detection and repair (astronomy pre-processing), and
// threshold-based connected-component extraction (source detection).
//
// These replace the Dipy and LSST-stack routines the paper's reference
// implementations call.
package imaging

import (
	"context"
	"math"
	"sort"

	"imagebench/internal/fan"
	"imagebench/internal/volume"
)

// Otsu computes Otsu's threshold for the given samples: the value that
// maximizes between-class variance of the two-class split (Otsu 1975,
// as used by the paper's segmentation step).
func Otsu(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		return lo
	}
	const bins = 256
	hist := make([]int, bins)
	scale := float64(bins-1) / (hi - lo)
	for _, s := range samples {
		hist[int((s-lo)*scale)]++
	}
	total := len(samples)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var wB, sumB float64
	bestVar, bestT := -1.0, 0
	for t := 0; t < bins; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > bestVar {
			bestVar, bestT = between, t
		}
	}
	return lo + (float64(bestT)+1)/scale
}

// OtsuMask thresholds a volume with Otsu's method, returning a binary mask
// (1 = foreground). This is the final sub-step of the paper's Step 1N.
func OtsuMask(v *volume.V3) *volume.V3 {
	t := Otsu(v.Data)
	out := volume.New3(v.NX, v.NY, v.NZ)
	for i, x := range v.Data {
		if x > t {
			out.Data[i] = 1
		}
	}
	return out
}

// MedianFilter3Into applies MedianFilter3 into dst, which must match
// v's shape and not alias it; existing contents are overwritten, so
// dst may come from an arena. Output is bit-identical to MedianFilter3.
func MedianFilter3Into(dst, v *volume.V3, radius int) {
	if radius <= 0 {
		copy(dst.Data, v.Data)
		return
	}
	medianFilter3(dst, v, radius)
}

// MedianFilter3 applies a 3-D median filter with the given radius
// (window edge = 2r+1), clamping at boundaries. Dipy's median_otsu applies
// this smoothing before thresholding.
func MedianFilter3(v *volume.V3, radius int) *volume.V3 {
	if radius <= 0 {
		return v.Clone()
	}
	out := volume.New3(v.NX, v.NY, v.NZ)
	medianFilter3(out, v, radius)
	return out
}

func medianFilter3(out, v *volume.V3, radius int) {
	win := make([]float64, 0, (2*radius+1)*(2*radius+1)*(2*radius+1))
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				win = win[:0]
				for dz := -radius; dz <= radius; dz++ {
					for dy := -radius; dy <= radius; dy++ {
						for dx := -radius; dx <= radius; dx++ {
							xx, yy, zz := clamp(x+dx, v.NX), clamp(y+dy, v.NY), clamp(z+dz, v.NZ)
							win = append(win, v.At(xx, yy, zz))
						}
					}
				}
				out.Set(x, y, z, median(win))
			}
		}
	}
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// NLMeansOpts configures non-local means denoising.
type NLMeansOpts struct {
	PatchRadius  int     // radius of the comparison patch (default 1)
	SearchRadius int     // radius of the search window (default 2)
	H            float64 // filtering strength; <=0 means auto from noise std
	// Workers bounds the goroutines tiling the z-planes: 0 means spare
	// cores, n means at most n goroutines, 1 means sequential on the
	// caller (for NLMeans3Stream it is Map's read-ahead, 0 meaning
	// GOMAXPROCS). The output is bit-identical for every value.
	Workers int
}

func (o NLMeansOpts) withDefaults() NLMeansOpts {
	if o.PatchRadius <= 0 {
		o.PatchRadius = 1
	}
	if o.SearchRadius <= 0 {
		o.SearchRadius = 2
	}
	return o
}

// strength returns the filtering parameter h: o.H when set, otherwise
// 0.7 of v's standard deviation (1 for a constant volume).
func (o NLMeansOpts) strength(v *volume.V3) float64 {
	if o.H > 0 {
		return o.H
	}
	if h := 0.7 * v.Summarize().Std; h != 0 {
		return h
	}
	return 1
}

// NLMeans3 denoises a 3-D volume with the blockwise non-local means
// algorithm (Coupé et al. 2008, the paper's Step 2N). When mask is non-nil,
// only voxels with mask≠0 are denoised (the paper uses the segmentation
// mask to skip background); other voxels pass through unchanged.
//
// The z-planes go to fan.Each one at a time, on at most opts.Workers
// goroutines: one plane per tile keeps load balancing fine-grained
// enough for masked kernels, where whole slabs of background cost
// almost nothing. Every voxel depends only on the read-only input and
// each tile writes a disjoint output plane, so the result is
// bit-identical for any split. A panic in a tile reaches the caller.
func NLMeans3(v *volume.V3, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	opts = opts.withDefaults()
	h := opts.strength(v)
	out := v.Clone() // pass-through voxels keep the input value
	// Each fails only through its context or fn, and neither can here.
	_ = fan.Each(context.Background(), v.NZ, opts.Workers, func(z int) error {
		nlmeansSlab(v, mask, out, 0, opts, h, z, z+1)
		return nil
	})
	return out
}

// NLMeans3Stream is the stream-producing form of the kernel: it
// returns a stream of denoised z-slab blocks of at most rows planes
// each, computed lazily on opts.Workers goroutines with output buffers
// drawn from arena. Every voxel is the same expression as NLMeans3's
// (the input stays materialized; only the output is streamed), so a
// Collect of the stream is bit-identical to NLMeans3 — but a consumer
// that reduces each block and releases it never holds the full
// denoised volume, which is how the reference pipelines fuse Step 2N
// into Step 3N. Blocks arrive in ascending Z0 order; the consumer owns
// each block and should Release it when done, or Drain the stream on
// early exit.
func NLMeans3Stream(ctx context.Context, v, mask *volume.V3, opts NLMeansOpts, arena *volume.Arena, rows int) volume.Stream {
	opts = opts.withDefaults()
	h := opts.strength(v)
	plane := v.NX * v.NY
	return volume.Map(ctx, volume.Slabs(v, rows), arena, opts.Workers, func(in volume.BlockVol, out *volume.V3) {
		// Pass-through voxels copy the input, exactly as NLMeans3's
		// up-front clone does; masked-in voxels are then overwritten.
		copy(out.Data, v.Data[in.B.Z0*plane:in.B.Z1*plane])
		nlmeansSlab(v, mask, out, in.B.Z0, opts, h, in.B.Z0, in.B.Z1)
	})
}

// nlmeansSlab denoises the z-planes [z0,z1) of v into out, whose plane
// z0 sits at out z-index z0-outZ0 (0 for a full-shape output, z0 for a
// slab-shaped block buffer). It is the body of the original sequential
// loop, unchanged except for the slab bounds: per-voxel candidate
// sets, iteration order, and accumulation order are identical, so any
// tile decomposition reproduces the sequential result bit-for-bit.
func nlmeansSlab(v, mask, out *volume.V3, outZ0 int, opts NLMeansOpts, h float64, z0, z1 int) {
	h2 := h * h
	pr, sr := opts.PatchRadius, opts.SearchRadius
	for z := z0; z < z1; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				if mask != nil && mask.At(x, y, z) == 0 {
					continue
				}
				// Clamp the search window to the volume up front; the
				// candidate set and iteration order are unchanged, so
				// results are bit-identical to the bounds-checked loop.
				zlo, zhi := max(-sr, -z), min(sr, v.NZ-1-z)
				ylo, yhi := max(-sr, -y), min(sr, v.NY-1-y)
				xlo, xhi := max(-sr, -x), min(sr, v.NX-1-x)
				var wsum, vsum float64
				for dz := zlo; dz <= zhi; dz++ {
					for dy := ylo; dy <= yhi; dy++ {
						for dx := xlo; dx <= xhi; dx++ {
							cx, cy, cz := x+dx, y+dy, z+dz
							d2 := patchDist2(v, x, y, z, cx, cy, cz, pr)
							w := math.Exp(-d2 / h2)
							wsum += w
							vsum += w * v.At(cx, cy, cz)
						}
					}
				}
				if wsum > 0 {
					out.Set(x, y, z-outZ0, vsum/wsum)
				}
			}
		}
	}
}

// patchDist2 returns the mean squared difference between patches centered
// at (x,y,z) and (cx,cy,cz), clamped at the boundary.
func patchDist2(v *volume.V3, x, y, z, cx, cy, cz, r int) float64 {
	// Fast path: both patches fully interior. The patches then sit at a
	// constant linear offset from each other, so the comparison walks
	// the data slice row by row with no per-voxel index math or
	// clamping. Summation order matches the general path below, so the
	// result is bit-identical.
	if x >= r && x+r < v.NX && y >= r && y+r < v.NY && z >= r && z+r < v.NZ &&
		cx >= r && cx+r < v.NX && cy >= r && cy+r < v.NY && cz >= r && cz+r < v.NZ {
		side := 2*r + 1
		delta := v.Idx(cx, cy, cz) - v.Idx(x, y, z)
		var sum float64
		for pz := -r; pz <= r; pz++ {
			for py := -r; py <= r; py++ {
				a := v.Idx(x-r, y+py, z+pz)
				rowA := v.Data[a : a+side]
				rowB := v.Data[a+delta : a+delta+side : a+delta+side]
				for i, av := range rowA {
					d := av - rowB[i]
					sum += d * d
				}
			}
		}
		return sum / float64(side*side*side)
	}
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
