package skymap

import (
	"math"
	"math/rand"
	"testing"
)

// oracleProject is Grid.Project as it was before the row-copy form: one
// pixel at a time, every bound tested per pixel. Kept verbatim.
func oracleProject(g Grid, e *Exposure, p Patch) *PatchExposure {
	pe := NewPatchExposure(g, p, e.Visit)
	baseX, baseY := p.PX*g.PatchW, p.PY*g.PatchH
	for y := 0; y < e.Flux.H; y++ {
		sy := e.Y0 + y - baseY
		if sy < 0 || sy >= g.PatchH {
			continue
		}
		for x := 0; x < e.Flux.W; x++ {
			sx := e.X0 + x - baseX
			if sx < 0 || sx >= g.PatchW {
				continue
			}
			if e.Mask[y*e.Flux.W+x]&MaskBad != 0 {
				continue
			}
			di := sy*g.PatchW + sx
			pe.Flux.Pix[di] = e.Flux.At(x, y)
			pe.Var.Pix[di] = e.Var.At(x, y)
			pe.Valid[di] = true
		}
	}
	return pe
}

// randomExposure fills every plane with values that tell pixels apart,
// negative zeros and NaNs among them, and masks about one pixel in
// eight bad (other mask bits set at random, which Project ignores).
func randomExposure(rng *rand.Rand, x0, y0, w, h int) *Exposure {
	e := NewExposure(3, 1, x0, y0, w, h)
	for i := range e.Flux.Pix {
		e.Flux.Pix[i] = rng.NormFloat64()
		e.Var.Pix[i] = rng.Float64()
		e.Mask[i] = uint8(rng.Intn(8)) &^ MaskBad
		if rng.Intn(8) == 0 {
			e.Mask[i] |= MaskBad
		}
	}
	e.Flux.Pix[0] = math.Copysign(0, -1)
	e.Flux.Pix[len(e.Flux.Pix)-1] = math.NaN()
	return e
}

func sameProjection(t *testing.T, name string, g Grid, e *Exposure, p Patch) {
	t.Helper()
	got, want := g.Project(e, p), oracleProject(g, e, p)
	if got.Patch != want.Patch || got.Visit != want.Visit || got.Flux.W != want.Flux.W || got.Flux.H != want.Flux.H ||
		got.Var.W != want.Var.W || got.Var.H != want.Var.H || len(got.Valid) != len(want.Valid) {
		t.Fatalf("%s %v: header or shape differs", name, p)
	}
	for i := range want.Valid {
		if got.Valid[i] != want.Valid[i] ||
			math.Float64bits(got.Flux.Pix[i]) != math.Float64bits(want.Flux.Pix[i]) ||
			math.Float64bits(got.Var.Pix[i]) != math.Float64bits(want.Var.Pix[i]) {
			t.Fatalf("%s %v: pixel %d is (%v, %g, %g), the oracle's (%v, %g, %g)", name, p, i,
				got.Valid[i], got.Flux.Pix[i], got.Var.Pix[i], want.Valid[i], want.Flux.Pix[i], want.Var.Pix[i])
		}
	}
}

// The row-copy Project is the per-pixel one bit for bit: on dithered
// and negative origins, on exposures smaller and larger than a patch,
// with rows that are clean, partly bad and wholly bad, on every patch
// the exposure touches and on its neighbours that it does not.
func TestProjectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := Grid{PatchW: 21, PatchH: 32}
	cases := []struct {
		name         string
		x0, y0, w, h int
	}{
		{"aligned", 0, 0, 21, 32},
		{"dithered", 5, -3, 32, 32},
		{"negative origin", -40, -37, 32, 32},
		{"far negative", -1000, -999, 17, 9},
		{"wider than three patches", 13, 7, 70, 40},
		{"inside one patch", 23, 35, 4, 5},
		{"one pixel", 20, 31, 1, 1},
	}
	for _, c := range cases {
		e := randomExposure(rng, c.x0, c.y0, c.w, c.h)
		// Row 0 wholly bad, row 1 wholly clean, the rest as drawn.
		for x := 0; x < c.w; x++ {
			e.Mask[x] |= MaskBad
			if c.h > 1 {
				e.Mask[c.w+x] &^= MaskBad
			}
		}
		overlaps := g.ExposureOverlaps(e)
		first, last := overlaps[0], overlaps[len(overlaps)-1]
		for py := first.PY - 1; py <= last.PY+1; py++ {
			for px := first.PX - 1; px <= last.PX+1; px++ {
				sameProjection(t, c.name, g, e, Patch{PX: px, PY: py})
			}
		}
	}
	for round := 0; round < 200; round++ {
		g := Grid{PatchW: 1 + rng.Intn(12), PatchH: 1 + rng.Intn(12)}
		e := randomExposure(rng, rng.Intn(41)-20, rng.Intn(41)-20, 1+rng.Intn(20), 1+rng.Intn(20))
		if round%4 == 0 { // an all-bad exposure projects to nothing
			for i := range e.Mask {
				e.Mask[i] |= MaskBad
			}
		}
		for _, p := range g.ExposureOverlaps(e) {
			sameProjection(t, "random", g, e, p)
		}
	}
}

// The flux and variance planes of a patch exposure share one array and
// nothing else: growing one never reaches the other.
func TestPatchExposurePlanesDoNotAlias(t *testing.T) {
	pe := NewPatchExposure(Grid{PatchW: 3, PatchH: 2}, Patch{}, 0)
	if len(pe.Flux.Pix) != 6 || len(pe.Var.Pix) != 6 || len(pe.Valid) != 6 {
		t.Fatalf("planes of %d, %d and %d pixels, want 6 each", len(pe.Flux.Pix), len(pe.Var.Pix), len(pe.Valid))
	}
	_ = append(pe.Flux.Pix, 9)
	if pe.Var.Pix[0] != 0 {
		t.Error("appending to the flux plane wrote into the variance plane")
	}
}
