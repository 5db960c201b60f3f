package imaging

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit for bit, the
// sign of zero included. Two NaNs count as the same whatever their
// payloads: when both operands of an addition or product are NaN the
// hardware returns the first one's payload, and which operand comes first
// is the compiler's choice — a -race build and a plain build of one source
// already disagree — so no body, old or new, pins it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func samePix(a, b *Image) (int, bool) {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return -1, false
	}
	for i := range a.Pix {
		if !sameFloat(a.Pix[i], b.Pix[i]) {
			return i, false
		}
	}
	return 0, true
}

// The content classes the kernels are compared over. Each fills a flux and
// a variance plane of the same size.
var contentClasses = []struct {
	name string
	fill func(rng *rand.Rand, flux, variance *Image)
}{
	{"gaussian-sky", func(rng *rand.Rand, flux, variance *Image) {
		for i := range flux.Pix {
			flux.Pix[i] = 100 + 10*rng.NormFloat64()
			variance.Pix[i] = 100 * (0.5 + rng.Float64())
		}
	}},
	{"integer-ties-zero-variance", func(rng *rand.Rand, flux, variance *Image) {
		for i := range flux.Pix {
			flux.Pix[i] = float64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				flux.Pix[i] = math.Copysign(0, -1)
			}
			variance.Pix[i] = 0
		}
	}},
	{"nan-inf-sprinkled", func(rng *rand.Rand, flux, variance *Image) {
		odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := range flux.Pix {
			flux.Pix[i] = 10 * rng.NormFloat64()
			if rng.Intn(5) == 0 {
				flux.Pix[i] = odd[rng.Intn(len(odd))]
			}
			variance.Pix[i] = rng.Float64()
		}
	}},
	{"huge-magnitudes", func(rng *rand.Rand, flux, variance *Image) {
		huge := []float64{-1e308, 1e308, -math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64 / 2, -9e307, 0}
		for i := range flux.Pix {
			flux.Pix[i] = huge[rng.Intn(len(huge))]
			variance.Pix[i] = 1
			if rng.Intn(4) == 0 {
				variance.Pix[i] = 1e300
			}
		}
	}},
	{"isolated-spikes", func(rng *rand.Rand, flux, variance *Image) {
		for i := range flux.Pix {
			flux.Pix[i] = 3 * rng.NormFloat64()
			variance.Pix[i] = 9
			if rng.Intn(40) == 0 {
				flux.Pix[i] += 150 // +50σ
			}
		}
	}},
	{"odd-variance", func(rng *rand.Rand, flux, variance *Image) {
		odd := []float64{math.NaN(), -1, -1e300, math.Inf(1), math.Inf(-1), 0}
		for i := range flux.Pix {
			flux.Pix[i] = 50 + 5*rng.NormFloat64()
			if rng.Intn(30) == 0 {
				flux.Pix[i] += 500
			}
			variance.Pix[i] = odd[rng.Intn(len(odd))]
		}
	}},
}

// TestKernelsMatchOracle compares the three Step 1A kernels with their
// previous bodies (oracle_test.go) bit for bit, over random image sizes up
// to 70 on each axis and every content class above.
func TestKernelsMatchOracle(t *testing.T) {
	cells := []int{0, 1, 3, 7, 16, 32, 100}
	nsigmas := []float64{0, 0.5, 3, 6}
	sizes := 24
	if testing.Short() {
		sizes = 6
	}
	for ci, class := range contentClasses {
		t.Run(class.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for s := 0; s < sizes; s++ {
				w, h := 1+rng.Intn(70), 1+rng.Intn(70)
				switch s { // the thin shapes random draws rarely hit
				case 0:
					w = 1
				case 1:
					h = 1
				case 2:
					w, h = 2, 2
				}
				if w == 1 && h == 1 {
					h = 2 // 1×1 has its own test: the oracle panics on it
				}
				flux, variance := NewImage(w, h), NewImage(w, h)
				class.fill(rng, flux, variance)
				before := flux.Clone()
				for _, cell := range cells {
					got, want := EstimateBackground(flux, cell), OracleEstimateBackground(flux, cell)
					if i, ok := samePix(got, want); !ok {
						t.Fatalf("EstimateBackground %dx%d cell %d: pixel %d = %v, oracle %v", w, h, cell, i, got.Pix[i], want.Pix[i])
					}
				}
				for _, ns := range nsigmas {
					got, want := DetectCosmicRays(flux, variance, ns), OracleDetectCosmicRays(flux, variance, ns)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("DetectCosmicRays %dx%d nsigma %v: hits %v, oracle %v", w, h, ns, got, want)
					}
					for _, iters := range []int{0, 1, 3} {
						gm, gs := SigmaClippedStats(flux.Pix, ns, iters)
						wm, ws := OracleSigmaClippedStats(flux.Pix, ns, iters)
						if !sameFloat(gm, wm) || !sameFloat(gs, ws) {
							t.Fatalf("SigmaClippedStats %dx%d nsigma %v iters %d: (%v, %v), oracle (%v, %v)", w, h, ns, iters, gm, gs, wm, ws)
						}
					}
				}
				if i, ok := samePix(flux, before); !ok {
					t.Fatalf("a kernel wrote to its input at pixel %d", i)
				}
			}
		})
	}
}

// TestDetectCosmicRaysMedianOverflow is the case a naive early reject gets
// wrong: every neighbour of the centre pixel passes v+t >= f, but the
// even-window median (a+b)/2 of two -1e308 overflows to -Inf, so the
// centre pixel IS above median+t.
func TestDetectCosmicRaysMedianOverflow(t *testing.T) {
	flux, variance := NewImage(3, 3), NewImage(3, 3)
	for i := range flux.Pix {
		flux.Pix[i] = -1e308
		variance.Pix[i] = 1
	}
	want := OracleDetectCosmicRays(flux, variance, 6)
	if !reflect.DeepEqual(want, []int{4}) {
		t.Fatalf("oracle flags %v, expected the centre pixel [4]", want)
	}
	if got := DetectCosmicRays(flux, variance, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("hits %v, oracle %v", got, want)
	}
}

// A pixel with no neighbours has no median to stand out from: it is not a
// hit, and repairing it leaves its value alone.
func TestDetectCosmicRaysSinglePixel(t *testing.T) {
	flux, variance := NewImage(1, 1), NewImage(1, 1)
	flux.Pix[0] = 1e6
	if hits := DetectCosmicRays(flux, variance, 6); len(hits) != 0 {
		t.Errorf("1×1 image: hits %v, want none", hits)
	}
}

func TestRepairPixelsSinglePixel(t *testing.T) {
	flux := NewImage(1, 1)
	flux.Pix[0] = 1e6
	mask := []uint8{0}
	RepairPixels(flux, mask, []int{0}, 2)
	if flux.Pix[0] != 1e6 {
		t.Errorf("pixel with no neighbours rewritten to %v", flux.Pix[0])
	}
	if mask[0] != 2 {
		t.Errorf("mask %d, want the flag bit set", mask[0])
	}
}

// fuzzImages turns fuzzer bytes into a flux and a variance plane: float64
// bit patterns, the first half flux and the second half variance, width
// chosen by the fuzzer. ok is false when there are not two pixels.
func fuzzImages(pix []byte, width uint8) (flux, variance *Image, ok bool) {
	if len(pix) > 16*1024 {
		pix = pix[:16*1024]
	}
	npix := len(pix) / 16
	if npix < 2 {
		return nil, nil, false
	}
	w := 1 + int(width)%npix
	h := npix / w
	if w*h < 2 {
		return nil, nil, false
	}
	flux, variance = NewImage(w, h), NewImage(w, h)
	for i := range flux.Pix {
		flux.Pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(pix[8*i:]))
		variance.Pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(pix[8*(npix+i):]))
	}
	return flux, variance, true
}

func fuzzBytes(flux, variance *Image) []byte {
	out := make([]byte, 0, 16*len(flux.Pix))
	for _, p := range flux.Pix {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p))
	}
	for _, p := range variance.Pix {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p))
	}
	return out
}

// FuzzDetectCosmicRays is differential: the early-reject kernel against its
// oracle on pixel and variance bit patterns of the fuzzer's choosing.
func FuzzDetectCosmicRays(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, class := range contentClasses {
		flux, variance := NewImage(7, 5), NewImage(7, 5)
		class.fill(rng, flux, variance)
		f.Add(fuzzBytes(flux, variance), uint8(6), 6.0)
		f.Add(fuzzBytes(flux, variance), uint8(0), 0.5)
	}
	over, one := NewImage(3, 3), NewImage(3, 3)
	for i := range over.Pix {
		over.Pix[i], one.Pix[i] = -1e308, 1
	}
	f.Add(fuzzBytes(over, one), uint8(2), 6.0)
	f.Fuzz(func(t *testing.T, pix []byte, width uint8, nsigma float64) {
		flux, variance, ok := fuzzImages(pix, width)
		if !ok {
			return
		}
		got, want := DetectCosmicRays(flux, variance, nsigma), OracleDetectCosmicRays(flux, variance, nsigma)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d nsigma %v: hits %v, oracle %v", flux.W, flux.H, nsigma, got, want)
		}
	})
}

// TestStep1AKernelAllocs pins what the allocation diet reached for a 32×32
// exposure, so it cannot regress silently. EstimateBackground: one scratch
// slice, the column index, and the returned image (header + pixels).
// DetectCosmicRays: only the growth of the hit list, here two hits.
func TestStep1AKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flux, variance := NewImage(32, 32), NewImage(32, 32)
	for i := range flux.Pix {
		flux.Pix[i] = 10 * rng.NormFloat64()
		variance.Pix[i] = 100
	}
	flux.Set(10, 10, 5000)
	flux.Set(20, 5, 4000)
	if hits := DetectCosmicRays(flux, variance, 6); len(hits) != 2 {
		t.Fatalf("fixture has %d hits, want 2", len(hits))
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"EstimateBackground", 4, func() { EstimateBackground(flux, 16) }},
		{"DetectCosmicRays", 2, func() { DetectCosmicRays(flux, variance, 6) }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, got, c.max)
		}
	}
}
