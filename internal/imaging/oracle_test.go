package imaging

import (
	"math"
	"sort"
)

// The bodies of SigmaClippedStats, EstimateBackground (with locate and
// bilinear) and DetectCosmicRays as they stood before the Step 1A kernel
// work, kept verbatim but for the Oracle prefix. They are the reference
// the fast kernels must match bit for bit (kernels_oracle_test.go), and
// they are exported so the pipeline-level test in package imaging_test can
// compose them. OracleDetectCosmicRays still panics on a 1×1 image; that
// case has its own test.

// OracleSigmaClippedStats returns the mean and standard deviation of xs after
// iteratively discarding samples more than nsigma standard deviations from
// the mean, for the given number of iterations.
func OracleSigmaClippedStats(xs []float64, nsigma float64, iters int) (mean, std float64) {
	kept := append([]float64(nil), xs...)
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

// OracleEstimateBackground estimates the smooth sky background of an image by
// computing sigma-clipped means over a mesh of cells (cell×cell pixels) and
// bilinearly interpolating between cell centers — the standard SExtractor /
// LSST-stack approach used in the paper's Step 1A.
func OracleEstimateBackground(im *Image, cell int) *Image {
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
	meshVal := make([]float64, gw*gh)
	meshX := make([]float64, gw)
	meshY := make([]float64, gh)
	buf := make([]float64, 0, cell*cell)
	for gy := 0; gy < gh; gy++ {
		y0, y1 := gy*cell, min((gy+1)*cell, im.H)
		meshY[gy] = (float64(y0) + float64(y1-1)) / 2
		for gx := 0; gx < gw; gx++ {
			x0, x1 := gx*cell, min((gx+1)*cell, im.W)
			meshX[gx] = (float64(x0) + float64(x1-1)) / 2
			buf = buf[:0]
			for y := y0; y < y1; y++ {
				buf = append(buf, im.Pix[y*im.W+x0:y*im.W+x1]...)
			}
			m, _ := OracleSigmaClippedStats(buf, 3, 3)
			meshVal[gy*gw+gx] = m
		}
	}
	bg := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		gy := oracleLocate(meshY, float64(y))
		for x := 0; x < im.W; x++ {
			gx := oracleLocate(meshX, float64(x))
			bg.Set(x, y, oracleBilinear(meshVal, meshX, meshY, gw, gx, gy, float64(x), float64(y)))
		}
	}
	return bg
}

// oracleLocate returns i such that centers[i] <= v < centers[i+1], clamped to
// [0, len-2]; for a single-cell mesh it returns 0.
func oracleLocate(centers []float64, v float64) int {
	if len(centers) == 1 {
		return 0
	}
	i := sort.SearchFloat64s(centers, v) - 1
	if i < 0 {
		i = 0
	}
	if i > len(centers)-2 {
		i = len(centers) - 2
	}
	return i
}

func oracleBilinear(mesh, xs, ys []float64, gw, gx, gy int, x, y float64) float64 {
	if len(xs) == 1 && len(ys) == 1 {
		return mesh[0]
	}
	x1, y1 := gx, gy
	x2, y2 := gx, gy
	if len(xs) > 1 {
		x2 = gx + 1
	}
	if len(ys) > 1 {
		y2 = gy + 1
	}
	fx := 0.0
	if x2 != x1 {
		fx = (x - xs[x1]) / (xs[x2] - xs[x1])
		fx = math.Max(0, math.Min(1, fx))
	}
	fy := 0.0
	if y2 != y1 {
		fy = (y - ys[y1]) / (ys[y2] - ys[y1])
		fy = math.Max(0, math.Min(1, fy))
	}
	v11 := mesh[y1*gw+x1]
	v21 := mesh[y1*gw+x2]
	v12 := mesh[y2*gw+x1]
	v22 := mesh[y2*gw+x2]
	return v11*(1-fx)*(1-fy) + v21*fx*(1-fy) + v12*(1-fx)*fy + v22*fx*fy
}

// OracleDetectCosmicRays flags pixels that stand out sharply from their 8
// neighbours: value > neighbour median + nsigma·sqrt(variance). It returns
// the flagged pixel indices. Cosmic rays hit single pixels or tight clumps,
// unlike real sources which are PSF-spread.
func OracleDetectCosmicRays(flux, variance *Image, nsigma float64) []int {
	var hits []int
	nb := make([]float64, 0, 8)
	for y := 0; y < flux.H; y++ {
		for x := 0; x < flux.W; x++ {
			nb = nb[:0]
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					if flux.In(x+dx, y+dy) {
						nb = append(nb, flux.At(x+dx, y+dy))
					}
				}
			}
			m := median(nb)
			sigma := math.Sqrt(math.Max(variance.At(x, y), 1e-12))
			if flux.At(x, y) > m+nsigma*sigma {
				hits = append(hits, y*flux.W+x)
			}
		}
	}
	return hits
}
