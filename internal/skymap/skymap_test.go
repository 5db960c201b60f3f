package skymap

import (
	"testing"
	"testing/quick"
)

func TestOverlapsCounts(t *testing.T) {
	g := Grid{PatchW: 10, PatchH: 10}
	// Fully inside one patch.
	if ps := g.Overlaps(1, 1, 5, 5); len(ps) != 1 || ps[0] != (Patch{0, 0}) {
		t.Errorf("inside: %v", ps)
	}
	// Straddling a vertical boundary.
	if ps := g.Overlaps(8, 0, 5, 5); len(ps) != 2 {
		t.Errorf("straddle: %v", ps)
	}
	// Straddling a corner: 4 patches.
	if ps := g.Overlaps(8, 8, 5, 5); len(ps) != 4 {
		t.Errorf("corner: %v", ps)
	}
	// Negative coordinates use floor division.
	if ps := g.Overlaps(-3, -3, 2, 2); len(ps) != 1 || ps[0] != (Patch{-1, -1}) {
		t.Errorf("negative: %v", ps)
	}
	// A sensor wider than 2 patches can hit 6 (3×2).
	if ps := g.Overlaps(5, 5, 21, 10); len(ps) != 6 {
		t.Errorf("wide: %d patches", len(ps))
	}
}

func TestOverlapsCoverProperty(t *testing.T) {
	// Property: every pixel of the rectangle falls in exactly one of the
	// returned patches.
	g := Grid{PatchW: 7, PatchH: 5}
	f := func(x0r, y0r int8, wr, hr uint8) bool {
		x0, y0 := int(x0r), int(y0r)
		w, h := int(wr%20)+1, int(hr%20)+1
		patches := map[Patch]bool{}
		for _, p := range g.Overlaps(x0, y0, w, h) {
			patches[p] = true
		}
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				p := Patch{PX: floorDiv(x, g.PatchW), PY: floorDiv(y, g.PatchH)}
				if !patches[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProjectPlacesPixels(t *testing.T) {
	g := Grid{PatchW: 10, PatchH: 10}
	e := NewExposure(0, 0, 8, 2, 6, 4) // spans patches (0,0) and (1,0)
	for i := range e.Flux.Pix {
		e.Flux.Pix[i] = float64(i + 1)
	}
	left := g.Project(e, Patch{0, 0})
	right := g.Project(e, Patch{1, 0})
	validCount := func(pe *PatchExposure) (n int) {
		for _, v := range pe.Valid {
			if v {
				n++
			}
		}
		return n
	}
	if validCount(left) != 2*4 || validCount(right) != 4*4 {
		t.Fatalf("valid counts %d, %d", validCount(left), validCount(right))
	}
	// Pixel (0,0) of the exposure is sky (8,2) → patch (0,0) local (8,2).
	if left.Flux.At(8, 2) != 1 {
		t.Errorf("pixel placement wrong: %v", left.Flux.At(8, 2))
	}
	// Masked-bad pixels stay invalid.
	e.Mask[0] = MaskBad
	left2 := g.Project(e, Patch{0, 0})
	if left2.Valid[2*10+8] {
		t.Error("bad pixel projected as valid")
	}
}

func TestMergeAndAssemble(t *testing.T) {
	g := Grid{PatchW: 10, PatchH: 10}
	a := NewPatchExposure(g, Patch{0, 0}, 3)
	b := NewPatchExposure(g, Patch{0, 0}, 3)
	a.Flux.Pix[0], a.Valid[0] = 5, true
	b.Flux.Pix[1], b.Valid[1] = 7, true
	if err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.Valid[0] || !a.Valid[1] || a.Flux.Pix[1] != 7 {
		t.Error("merge lost pixels")
	}
	// Mismatched visits refuse to merge.
	c := NewPatchExposure(g, Patch{0, 0}, 4)
	if err := Merge(a, c); err == nil {
		t.Error("merged different visits")
	}
	// A deferred piece is merged only by Assemble, which builds it first.
	if err := Merge(a, g.Defer(atHand(NewExposure(3, 0, 0, 0, 1, 1)), Patch{0, 0})); err == nil {
		t.Error("merged a deferred piece's missing planes")
	}
	out, err := AssemblePatches([]*PatchExposure{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("assembled %d, want 2 (visits kept separate)", len(out))
	}
}

func TestCoaddClipsOutliers(t *testing.T) {
	// A single outlier among n samples is at most (n-1)/sqrt(n) sigma
	// from the mean, so 3-sigma clipping needs n >= 11 to fire — use 12
	// visits (the paper's largest run has 24).
	g := Grid{PatchW: 4, PatchH: 4}
	const visits = 12
	var stack []*PatchExposure
	for v := 0; v < visits; v++ {
		pe := NewPatchExposure(g, Patch{0, 0}, v)
		for i := range pe.Flux.Pix {
			pe.Flux.Pix[i] = 10 + float64(v%3) // mild real variation
			pe.Valid[i] = true
		}
		stack = append(stack, pe)
	}
	// One visit has a huge outlier at pixel 5 (a cosmic ray the
	// pre-processing missed).
	stack[3].Flux.Pix[5] = 10000
	co, err := CoaddPatch(stack, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if co.NVisits.Pix[5] != visits-1 {
		t.Errorf("outlier pixel visits %v, want %d", co.NVisits.Pix[5], visits-1)
	}
	if co.Flux.Pix[5] > 200 {
		t.Errorf("outlier pixel coadd %v still contains the cosmic ray", co.Flux.Pix[5])
	}
	if co.NVisits.Pix[0] != visits {
		t.Errorf("clean pixel visits %v", co.NVisits.Pix[0])
	}
}

func TestCoaddStateStepwiseMatchesCoaddPatch(t *testing.T) {
	g := Grid{PatchW: 3, PatchH: 3}
	var stack []*PatchExposure
	for v := 0; v < 5; v++ {
		pe := NewPatchExposure(g, Patch{0, 0}, v)
		for i := range pe.Flux.Pix {
			pe.Flux.Pix[i] = float64(v*7+i) * 1.5
			pe.Valid[i] = true
		}
		stack = append(stack, pe)
	}
	want, err := CoaddPatch(stack, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewCoaddState(stack)
	if err != nil {
		t.Fatal(err)
	}
	st.ClipIteration(3)
	st.ClipIteration(3)
	got := st.Sum()
	for i := range want.Flux.Pix {
		if got.Flux.Pix[i] != want.Flux.Pix[i] {
			t.Fatalf("pixel %d: stepwise %v vs direct %v", i, got.Flux.Pix[i], want.Flux.Pix[i])
		}
	}
}

func TestCoaddFewSamplesNotClipped(t *testing.T) {
	g := Grid{PatchW: 2, PatchH: 2}
	var stack []*PatchExposure
	for v := 0; v < 2; v++ {
		pe := NewPatchExposure(g, Patch{0, 0}, v)
		for i := range pe.Flux.Pix {
			pe.Flux.Pix[i] = float64(100 * (v + 1))
			pe.Valid[i] = true
		}
		stack = append(stack, pe)
	}
	co, err := CoaddPatch(stack, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if co.NVisits.Pix[0] != 2 {
		t.Errorf("with <3 samples nothing should be clipped: %v", co.NVisits.Pix[0])
	}
}

func TestGroupByPatchOrder(t *testing.T) {
	g := Grid{PatchW: 4, PatchH: 4}
	pes := []*PatchExposure{
		NewPatchExposure(g, Patch{1, 1}, 0),
		NewPatchExposure(g, Patch{0, 0}, 1),
		NewPatchExposure(g, Patch{1, 1}, 1),
	}
	patches, groups := GroupByPatch(pes)
	if len(patches) != 2 || patches[0] != (Patch{0, 0}) || patches[1] != (Patch{1, 1}) {
		t.Errorf("patch order %v", patches)
	}
	if len(groups[Patch{1, 1}]) != 2 {
		t.Errorf("grouping wrong")
	}
}
