package imaging

import (
	"fmt"
	"math"
	"sort"
)

// Image is a dense 2-D raster in row-major layout, used for astronomy
// sensor exposures (one plane each for flux, variance, and mask).
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage returns a zeroed w×h image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image dims %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x,y).
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set assigns the pixel at (x,y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// In reports whether (x,y) is inside the image.
func (im *Image) In(x, y int) bool { return x >= 0 && x < im.W && y >= 0 && y < im.H }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// SigmaClippedStats returns the mean and standard deviation of xs after
// iteratively discarding samples more than nsigma standard deviations from
// the mean, for the given number of iterations.
func SigmaClippedStats(xs []float64, nsigma float64, iters int) (mean, std float64) {
	return sigmaClipInPlace(append([]float64(nil), xs...), nsigma, iters)
}

// sigmaClipInPlace is SigmaClippedStats on a slice the caller gives up:
// the survivors of each iteration are compacted to its front, in order.
func sigmaClipInPlace(kept []float64, nsigma float64, iters int) (mean, std float64) {
	for it := 0; it <= iters; it++ {
		if len(kept) == 0 {
			return 0, 0
		}
		var sum, sq float64
		for _, x := range kept {
			sum += x
			sq += x * x
		}
		n := float64(len(kept))
		mean = sum / n
		variance := sq/n - mean*mean
		if variance > 0 {
			std = math.Sqrt(variance)
		} else {
			std = 0
		}
		if it == iters || std == 0 {
			return mean, std
		}
		next := kept[:0]
		for _, x := range kept {
			if math.Abs(x-mean) <= nsigma*std {
				next = append(next, x)
			}
		}
		if len(next) == len(kept) {
			return mean, std
		}
		kept = next
	}
	return mean, std
}

// EstimateBackground estimates the smooth sky background of an image by
// computing sigma-clipped means over a mesh of cells (cell×cell pixels) and
// bilinearly interpolating between cell centers — the standard SExtractor /
// LSST-stack approach used in the paper's Step 1A.
func EstimateBackground(im *Image, cell int) *Image {
	if cell <= 0 {
		cell = 32
	}
	gw := (im.W + cell - 1) / cell
	gh := (im.H + cell - 1) / cell
	if gw < 1 {
		gw = 1
	}
	if gh < 1 {
		gh = 1
	}
	// One scratch allocation for the mesh, its cell centers and the
	// per-column interpolation weights. Each cell is gathered and clipped
	// in the output image's own pixels, which the interpolation overwrites
	// afterwards: a cell is never larger than the image.
	bg := NewImage(im.W, im.H)
	scratch := make([]float64, gw*gh+gw+gh+im.W)
	meshVal, scratch := scratch[:gw*gh], scratch[gw*gh:]
	meshX, scratch := scratch[:gw], scratch[gw:]
	meshY, fxs := scratch[:gh], scratch[gh:]
	for gy := 0; gy < gh; gy++ {
		y0, y1 := gy*cell, min((gy+1)*cell, im.H)
		meshY[gy] = (float64(y0) + float64(y1-1)) / 2
		for gx := 0; gx < gw; gx++ {
			x0, x1 := gx*cell, min((gx+1)*cell, im.W)
			meshX[gx] = (float64(x0) + float64(x1-1)) / 2
			buf := bg.Pix[:0]
			for y := y0; y < y1; y++ {
				buf = append(buf, im.Pix[y*im.W+x0:y*im.W+x1]...)
			}
			meshVal[gy*gw+gx], _ = sigmaClipInPlace(buf, 3, 3)
		}
	}
	if gw == 1 && gh == 1 {
		for i := range bg.Pix {
			bg.Pix[i] = meshVal[0]
		}
		return bg
	}
	// The mesh cell and weight of a pixel depend on its column or its row
	// alone: columns are located once per image, rows once per row.
	gxs := make([]int, im.W)
	for x := range gxs {
		gxs[x], fxs[x] = meshWeight(meshX, float64(x))
	}
	right, down := 0, 0 // mesh offsets to the interval's far corners; 0 on a single-cell axis
	if gw > 1 {
		right = 1
	}
	if gh > 1 {
		down = gw
	}
	for y := 0; y < im.H; y++ {
		gy, fy := meshWeight(meshY, float64(y))
		top := meshVal[gy*gw : gy*gw+gw]
		bot := meshVal[gy*gw+down : gy*gw+down+gw]
		row := bg.Pix[y*im.W : (y+1)*im.W]
		for x := range row {
			x1, fx := gxs[x], fxs[x]
			x2 := x1 + right
			row[x] = top[x1]*(1-fx)*(1-fy) + top[x2]*fx*(1-fy) + bot[x1]*(1-fx)*fy + bot[x2]*fx*fy
		}
	}
	return bg
}

// meshWeight returns the mesh interval i holding v (centers[i] <= v <
// centers[i+1], clamped to [0, len-2]) and v's interpolation weight within
// it, clamped to [0,1]; a single-cell axis gives (0, 0).
func meshWeight(centers []float64, v float64) (i int, f float64) {
	if len(centers) == 1 {
		return 0, 0
	}
	i = sort.SearchFloat64s(centers, v) - 1
	if i < 0 {
		i = 0
	}
	if i > len(centers)-2 {
		i = len(centers) - 2
	}
	f = (v - centers[i]) / (centers[i+1] - centers[i])
	return i, math.Max(0, math.Min(1, f))
}

// DetectCosmicRays flags pixels that stand out sharply from their 8
// neighbours: value > neighbour median + nsigma·sqrt(variance). It returns
// the flagged pixel indices. Cosmic rays hit single pixels or tight clumps,
// unlike real sources which are PSF-spread. A pixel with no neighbours (a
// 1×1 image) is not a hit.
//
// Almost every pixel is rejected without sorting its window. With
// t = nsigma·sigma, count the neighbours v with v+t >= f. If they are more
// than half the window they include both middle elements a <= b of the
// sorted window (rounded addition is monotone and NaNs sort first), the
// median m is a or (a+b)/2 >= a, so m+t >= a+t >= f and the pixel cannot
// be a hit.
// Two guards keep that exact for every input. A comparison with NaN is
// false, so a NaN neighbour, pixel or threshold never counts towards
// rejection. And (a+b)/2 >= a fails when a+b overflows to -Inf, which
// needs a < -MaxFloat64/2; such a neighbour can only be counted when
// f <= a+t <= -MaxFloat64/2+t, so a pixel is rejected only above that.
// The few survivors take the sort.
func DetectCosmicRays(flux, variance *Image, nsigma float64) []int {
	var hits []int
	var win [8]float64
	w, h := flux.W, flux.H
	for y := 0; y < h; y++ {
		y0, y1 := max(y-1, 0), min(y+1, h-1)
		for x := 0; x < w; x++ {
			x0, x1 := max(x-1, 0), min(x+1, w-1)
			f := flux.Pix[y*w+x]
			sigma := math.Sqrt(max(variance.At(x, y), 1e-12))
			// The conversion rounds the product, so that no architecture
			// fuses it into one of the additions below and not the other.
			t := float64(nsigma * sigma)
			// Count over the whole block, then take the pixel itself out.
			n, atLeast := (y1-y0+1)*(x1-x0+1)-1, 0
			for yy := y0; yy <= y1; yy++ {
				for _, v := range flux.Pix[yy*w+x0 : yy*w+x1+1] {
					if v+t >= f {
						atLeast++
					}
				}
			}
			if f+t >= f {
				atLeast--
			}
			if n == 0 || (2*atLeast > n && f > -math.MaxFloat64/2+t) {
				continue
			}
			nb := win[:0]
			for yy := y0; yy <= y1; yy++ {
				for xx := x0; xx <= x1; xx++ {
					if xx != x || yy != y {
						nb = append(nb, flux.Pix[yy*w+xx])
					}
				}
			}
			if f > median(nb)+t {
				hits = append(hits, y*w+x)
			}
		}
	}
	return hits
}

// RepairPixels replaces each listed pixel with the median of its
// non-flagged 8-neighbours, and marks it in mask with the given flag bit.
func RepairPixels(flux *Image, mask []uint8, hits []int, flag uint8) {
	bad := make(map[int]bool, len(hits))
	for _, i := range hits {
		bad[i] = true
	}
	nb := make([]float64, 0, 8)
	for _, i := range hits {
		x, y := i%flux.W, i/flux.W
		nb = nb[:0]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				xx, yy := x+dx, y+dy
				if flux.In(xx, yy) && !bad[yy*flux.W+xx] {
					nb = append(nb, flux.At(xx, yy))
				}
			}
		}
		if len(nb) > 0 {
			flux.Set(x, y, median(nb))
		}
		if mask != nil {
			mask[i] |= flag
		}
	}
}

// Source is a detected pixel cluster in a coadded image.
type Source struct {
	ID       int
	X, Y     float64 // flux-weighted centroid
	Flux     float64 // total flux above threshold
	NPix     int
	PeakFlux float64
}

// DetectSources finds connected clusters (8-connectivity) of pixels whose
// flux exceeds background + nsigma·std, with at least minPix pixels — the
// paper's Step 4A. Sources are returned in decreasing flux order.
func DetectSources(flux *Image, nsigma float64, minPix int) []Source {
	resid := EstimateBackground(flux, 32).Pix // the background's pixels become the residual's
	for i, b := range resid {
		resid[i] = flux.Pix[i] - b
	}
	_, std := SigmaClippedStats(resid, 3, 3)
	thresh := nsigma * std
	if thresh == 0 {
		thresh = 1e-12
	}
	seen := make([]bool, len(flux.Pix))
	var sources []Source
	var stack []int
	next := 0
	for start, r := range resid {
		if r <= thresh || seen[start] {
			continue
		}
		next++
		src := Source{ID: next}
		stack = append(stack[:0], start)
		seen[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%flux.W, i/flux.W
			f := resid[i]
			src.Flux += f
			src.NPix++
			src.X += f * float64(x)
			src.Y += f * float64(y)
			if f > src.PeakFlux {
				src.PeakFlux = f
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy := x+dx, y+dy
					if !flux.In(xx, yy) {
						continue
					}
					j := yy*flux.W + xx
					if !seen[j] && resid[j] > thresh {
						seen[j] = true
						stack = append(stack, j)
					}
				}
			}
		}
		if src.NPix >= minPix && src.Flux > 0 {
			src.X /= src.Flux
			src.Y /= src.Flux
			sources = append(sources, src)
		}
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Flux > sources[j].Flux })
	return sources
}
