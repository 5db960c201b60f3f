package skymap

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"imagebench/internal/lazy"
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
	samePiece(t, name, p, g.Project(e, p), oracleProject(g, e, p))
}

// samePiece fails unless got is want, header, shape and planes, bit for bit.
func samePiece(t testing.TB, name string, p Patch, got, want *PatchExposure) {
	t.Helper()
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

// chain projects es onto p with piece and merges the pieces in order.
func chain(t testing.TB, es []*Exposure, p Patch, piece func(*Exposure, Patch) *PatchExposure) *PatchExposure {
	t.Helper()
	pe := piece(es[0], p)
	for _, e := range es[1:] {
		if err := Merge(pe, piece(e, p)); err != nil {
			t.Fatal(err)
		}
	}
	return pe
}

// atHand is e as a Pending exposure whose pixels are already computed.
func atHand(e *Exposure) Pending {
	return Pending{Header: e, Pixels: lazy.Of(func() (*Exposure, error) { return e, nil })}
}

// assembled defers or projects each of es onto p, as deferred says by
// index, and assembles the pieces with order into one piece, built.
func assembled(t testing.TB, g Grid, es []*Exposure, p Patch, deferred func(i int) bool, order func([]*PatchExposure)) *PatchExposure {
	t.Helper()
	pieces := make([]*PatchExposure, len(es))
	anyDeferred := false
	for i, e := range es {
		if pieces[i] = g.Project(e, p); deferred(i) {
			pieces[i], anyDeferred = g.Defer(atHand(e), p), true
			if pieces[i].Flux != nil || pieces[i].Valid != nil || pieces[i].Visit != e.Visit {
				t.Fatalf("%v: a deferred piece has planes or another visit", p)
			}
		}
	}
	out, err := Assemble(pieces, order)
	if err != nil || len(out) != 1 {
		t.Fatalf("%v: assembled %d pieces (%v), want one", p, len(out), err)
	}
	if (out[0].Flux == nil) != anyDeferred {
		t.Fatalf("%v: a group with a deferred piece must come back deferred, and only such a group", p)
	}
	built, err := out[0].Built()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := out[0].Built(); again != built {
		t.Fatalf("%v: a deferred piece was built twice", p)
	}
	return built
}

// checkDefer holds the deferred pieces of one visit's exposures es, on
// every patch they touch, to the oracle's projections merged in order:
// assembled all deferred, deferred up to split and projected after it,
// and the other way round; and, in reverse order, through Assemble's
// order hook, which sees built pieces.
func checkDefer(t testing.TB, g Grid, es []*Exposure, split int) {
	t.Helper()
	done := map[Patch]bool{}
	reversed := slices.Clone(es)
	slices.Reverse(reversed)
	for _, e := range es {
		for _, p := range g.ExposureOverlaps(e) {
			if done[p] {
				continue
			}
			done[p] = true
			want := chain(t, es, p, func(e *Exposure, p Patch) *PatchExposure { return oracleProject(g, e, p) })
			for _, c := range []struct {
				name     string
				deferred func(int) bool
			}{
				{"all deferred", func(int) bool { return true }},
				{"deferred then projected", func(i int) bool { return i < split }},
				{"projected then deferred", func(i int) bool { return i >= split }},
			} {
				got := assembled(t, g, es, p, c.deferred, nil)
				samePiece(t, c.name, p, got, want)
			}
			reverse := func(pes []*PatchExposure) {
				for _, pe := range pes {
					if pe.Valid == nil {
						t.Fatalf("%v: order saw a piece unbuilt", p)
					}
				}
				slices.Reverse(pes)
			}
			want = chain(t, reversed, p, func(e *Exposure, p Patch) *PatchExposure { return oracleProject(g, e, p) })
			samePiece(t, "reordered", p, assembled(t, g, es, p, func(i int) bool { return i%2 == 0 }, reverse), want)
		}
	}
}

// randomVisit draws one visit's exposures on g: up to four, overlapping
// at random so first-valid-wins decides some pixels, with rows wholly
// bad and, now and then, an exposure wholly bad.
func randomVisit(rng *rand.Rand, g Grid, visit int) []*Exposure {
	es := make([]*Exposure, 1+rng.Intn(4))
	for i := range es {
		w, h := 1+rng.Intn(3*g.PatchW), 1+rng.Intn(3*g.PatchH)
		e := randomExposure(rng, rng.Intn(4*g.PatchW+1)-2*g.PatchW, rng.Intn(4*g.PatchH+1)-2*g.PatchH, w, h)
		e.Visit = visit
		for x := 0; x < w; x++ {
			e.Mask[rng.Intn(h)*w+x] |= MaskBad
		}
		if rng.Intn(6) == 0 {
			for j := range e.Mask {
				e.Mask[j] |= MaskBad
			}
		}
		es[i] = e
	}
	return es
}

// Defer and Assemble, and the planes built when read, are Project and
// Merge bit for bit, whatever the mix of deferred and projected pieces
// and on any grid, and a stack of deferred pieces co-adds to what the
// projected stack does.
func TestDeferMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 300; round++ {
		g := Grid{PatchW: 1 + rng.Intn(12), PatchH: 1 + rng.Intn(12)}
		es := randomVisit(rng, g, 3)
		checkDefer(t, g, es, rng.Intn(len(es)+1))
	}

	g := Grid{PatchW: 9, PatchH: 7}
	p := Patch{PX: -1, PY: 0}
	var deferred, projected []*PatchExposure
	for v := 0; v < 12; v++ {
		es := randomVisit(rng, g, v)
		for _, e := range es { // every exposure on p, around its origin
			e.X0, e.Y0 = -g.PatchW+rng.Intn(5)-2, rng.Intn(5)-2
		}
		pieces := make([]*PatchExposure, len(es))
		for i, e := range es {
			pieces[i] = g.Defer(atHand(e), p)
		}
		stack, err := Assemble(pieces, nil)
		if err != nil {
			t.Fatal(err)
		}
		deferred = append(deferred, stack...)
		projected = append(projected, chain(t, es, p, g.Project))
	}
	projected[4].Flux.Pix[10] = 1e6 // an outlier, so clipping does something
	built, err := deferred[4].Built()
	if err != nil {
		t.Fatal(err)
	}
	built.Flux.Pix[10] = 1e6
	got, err := CoaddPatch(deferred, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CoaddPatch(projected, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bitsOf(got.Flux.Pix), bitsOf(want.Flux.Pix)) || !slices.Equal(bitsOf(got.NVisits.Pix), bitsOf(want.NVisits.Pix)) {
		t.Error("the deferred stack co-adds to other bits than the projected one")
	}
	for v, pe := range deferred {
		if pe.Flux != nil {
			t.Errorf("visit %d: CoaddPatch wrote planes into the deferred piece", v)
		}
	}
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// FuzzDefer is the differential of TestDeferMatchesProject over
// arbitrary grids, geometries, pixel values and merge groupings.
func FuzzDefer(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(5), uint8(2))
	f.Add(int64(-3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(12), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, pw, ph, split uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := Grid{PatchW: 1 + int(pw%16), PatchH: 1 + int(ph%16)}
		es := randomVisit(rng, g, int(seed%7))
		checkDefer(t, g, es, int(split)%(len(es)+1))
	})
}
