// Package skymap implements the sky geometry of the astronomy use case:
// sensor exposures positioned on a pixel sky plane (a linearized WCS), the
// rectangular patch grid, the exposure→patch overlap flatmap (Step 2A),
// patch-exposure assembly, and sigma-clipped co-addition (Step 3A).
package skymap

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"imagebench/internal/imaging"
	"imagebench/internal/lazy"
)

// Mask plane bits carried with each exposure pixel.
const (
	MaskBad       uint8 = 1 << 0 // cosmetic defect
	MaskCosmicRay uint8 = 1 << 1 // repaired cosmic-ray hit
	MaskClipped   uint8 = 1 << 2 // nulled by co-addition outlier clipping
)

// Exposure is one sensor read-out placed on the sky: a flux plane, a
// per-pixel variance plane, and a mask plane, with pixel (0,0) at sky
// position (X0,Y0). This mirrors the FITS structure in the paper's data
// (header + three 2-D arrays).
type Exposure struct {
	Visit  int
	Sensor int
	X0, Y0 int
	Flux   *imaging.Image
	Var    *imaging.Image
	Mask   []uint8
}

// NewExposure allocates an exposure of the given geometry.
func NewExposure(visit, sensor, x0, y0, w, h int) *Exposure {
	return &Exposure{
		Visit: visit, Sensor: sensor, X0: x0, Y0: y0,
		Flux: imaging.NewImage(w, h),
		Var:  imaging.NewImage(w, h),
		Mask: make([]uint8, w*h),
	}
}

// Clone returns a deep copy.
func (e *Exposure) Clone() *Exposure {
	c := *e
	c.Flux = e.Flux.Clone()
	c.Var = e.Var.Clone()
	c.Mask = append([]uint8(nil), e.Mask...)
	return &c
}

// Patch identifies one rectangular sky region in the patch grid.
type Patch struct{ PX, PY int }

func (p Patch) String() string { return fmt.Sprintf("patch(%d,%d)", p.PX, p.PY) }

// Grid partitions the sky plane into PatchW×PatchH-pixel patches.
type Grid struct {
	PatchW, PatchH int
}

// Overlaps returns the patches a rectangle at (x0,y0) of size w×h touches,
// in row-major order. In the paper each exposure lands in 1–6 patches.
func (g Grid) Overlaps(x0, y0, w, h int) []Patch {
	if w <= 0 || h <= 0 {
		return nil
	}
	px0 := floorDiv(x0, g.PatchW)
	px1 := floorDiv(x0+w-1, g.PatchW)
	py0 := floorDiv(y0, g.PatchH)
	py1 := floorDiv(y0+h-1, g.PatchH)
	out := make([]Patch, 0, (px1-px0+1)*(py1-py0+1))
	for py := py0; py <= py1; py++ {
		for px := px0; px <= px1; px++ {
			out = append(out, Patch{PX: px, PY: py})
		}
	}
	return out
}

// Pending is an exposure whose pixels are computed when first read
// (Pixels), with the header they keep at hand: Header's visit, sensor
// and placement. Header's pixels are not Pixels'.
type Pending struct {
	Header *Exposure
	Pixels *lazy.Value[*Exposure]
}

// ExposureOverlaps returns the patches e touches.
func (g Grid) ExposureOverlaps(e *Exposure) []Patch {
	return g.Overlaps(e.X0, e.Y0, e.Flux.W, e.Flux.H)
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// PatchExposure is the pixels one visit contributes to one patch: a
// patch-sized flux/variance raster with a validity plane (pixels outside
// the contributing sensors are invalid). A deferred piece (Grid.Defer)
// or group (Assemble) has its patch and visit and no planes: Built
// makes them.
type PatchExposure struct {
	Patch Patch
	Visit int
	Flux  *imaging.Image
	Var   *imaging.Image
	Valid []bool
	// A deferred piece holds its exposure's pending pixels and the grid
	// to project them on; a deferred group, its merge, memoized.
	pixels *lazy.Value[*Exposure]
	grid   Grid
	built  *lazy.Value[*PatchExposure]
}

// NewPatchExposure allocates an all-invalid patch exposure. The flux
// and variance planes share one backing array.
func NewPatchExposure(g Grid, p Patch, visit int) *PatchExposure {
	if g.PatchW <= 0 || g.PatchH <= 0 {
		panic(fmt.Sprintf("skymap: invalid patch dims %dx%d", g.PatchW, g.PatchH))
	}
	n := g.PatchW * g.PatchH
	pix := make([]float64, 2*n)
	return &PatchExposure{
		Patch: p, Visit: visit,
		Flux:  &imaging.Image{W: g.PatchW, H: g.PatchH, Pix: pix[:n:n]},
		Var:   &imaging.Image{W: g.PatchW, H: g.PatchH, Pix: pix[n:]},
		Valid: make([]bool, n),
	}
}

// Project copies the pixels of e that fall inside patch p into a new
// PatchExposure. Pixels masked MaskBad are left invalid. The overlap
// rectangle is computed once and a row without a bad pixel is copied
// whole.
func (g Grid) Project(e *Exposure, p Patch) *PatchExposure {
	pe := NewPatchExposure(g, p, e.Visit)
	g.project(e, pe)
	return pe
}

// Defer is Project on demand: the piece of patch p that e's pixels
// yield, one object holding e's pending pixels, projected on every read
// (Built). It reads no pixel and forces nothing.
func (g Grid) Defer(e Pending, p Patch) *PatchExposure {
	return &PatchExposure{Patch: p, Visit: e.Header.Visit, pixels: e.Pixels, grid: g}
}

func (pe *PatchExposure) deferred() bool { return pe.pixels != nil || pe.built != nil }

// Built returns pe with its planes: pe itself; for a deferred piece, a
// fresh projection of its exposure's pixels (forced once, by the first
// read of any piece of them); for a deferred group, its merge, built by
// the first call from any goroutine.
func (pe *PatchExposure) Built() (*PatchExposure, error) {
	switch {
	case pe.pixels != nil:
		x, err := pe.pixels.Force()
		if err != nil {
			return nil, err
		}
		return pe.grid.Project(x, pe.Patch), nil
	case pe.built != nil:
		return pe.built.Force()
	}
	return pe, nil
}

// project fills pe (patch pe.Patch) from e.
func (g Grid) project(e *Exposure, pe *PatchExposure) {
	// The patch's origin in e's pixel coordinates, and the overlap there.
	ox, oy := pe.Patch.PX*g.PatchW-e.X0, pe.Patch.PY*g.PatchH-e.Y0
	x0, x1 := max(ox, 0), min(ox+g.PatchW, e.Flux.W)
	y0, y1 := max(oy, 0), min(oy+g.PatchH, e.Flux.H)
	if x0 >= x1 {
		return
	}
	n := x1 - x0
	for y := y0; y < y1; y++ {
		si, vi, di := y*e.Flux.W+x0, y*e.Var.W+x0, (y-oy)*g.PatchW+x0-ox
		mask, valid := e.Mask[si:si+n], pe.Valid[di:di+n]
		clean := true
		for _, m := range mask {
			if m&MaskBad != 0 {
				clean = false
				break
			}
		}
		if clean {
			copy(pe.Flux.Pix[di:di+n], e.Flux.Pix[si:si+n])
			copy(pe.Var.Pix[di:di+n], e.Var.Pix[vi:vi+n])
			for x := range valid {
				valid[x] = true
			}
			continue
		}
		for x, m := range mask {
			if m&MaskBad == 0 {
				pe.Flux.Pix[di+x] = e.Flux.Pix[si+x]
				pe.Var.Pix[di+x] = e.Var.Pix[vi+x]
				valid[x] = true
			}
		}
	}
}

// Merge unions the valid pixels of src into dst (same patch and visit).
// Overlapping sensor pixels keep dst's value; sensors within a visit abut
// rather than overlap, so ties are rare and benign. Both pieces must be
// built: Assemble merges deferred ones.
func Merge(dst, src *PatchExposure) error {
	if dst.Patch != src.Patch || dst.Visit != src.Visit {
		return fmt.Errorf("skymap: merging %v/visit %d into %v/visit %d",
			src.Patch, src.Visit, dst.Patch, dst.Visit)
	}
	if dst.deferred() || src.deferred() {
		return fmt.Errorf("skymap: merging a deferred piece of %v/visit %d", dst.Patch, dst.Visit)
	}
	for i, v := range src.Valid {
		if v && !dst.Valid[i] {
			dst.Flux.Pix[i] = src.Flux.Pix[i]
			dst.Var.Pix[i] = src.Var.Pix[i]
			dst.Valid[i] = true
		}
	}
	return nil
}

// AssemblePatches groups a visit's projected pieces by patch and merges
// each group into one PatchExposure per (patch, visit) — the grouping half
// of Step 2A. The input may contain pieces from many visits. Each group
// is merged into its first piece, which is mutated and returned (a
// deferred piece's planes, projected for that read): a piece is never
// shared, so Project, Defer and a deferred piece's Built make a fresh
// one on every call.
func AssemblePatches(pieces []*PatchExposure) ([]*PatchExposure, error) {
	return Assemble(pieces, nil)
}

// Assemble is AssemblePatches with each group merged in the order that
// order leaves its built pieces in (nil: as given). A group holding a
// deferred piece comes back deferred: its pieces are built, ordered and
// merged when it is first read.
func Assemble(pieces []*PatchExposure, order func([]*PatchExposure)) ([]*PatchExposure, error) {
	sorted := slices.Clone(pieces)
	slices.SortStableFunc(sorted, func(a, b *PatchExposure) int {
		return cmp.Or(cmp.Compare(a.Patch.PY, b.Patch.PY), cmp.Compare(a.Patch.PX, b.Patch.PX), cmp.Compare(a.Visit, b.Visit))
	})
	var out []*PatchExposure
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].Patch == sorted[0].Patch && sorted[n].Visit == sorted[0].Visit {
			n++
		}
		group := sorted[:n:n]
		sorted = sorted[n:]
		if slices.ContainsFunc(group, (*PatchExposure).deferred) {
			out = append(out, &PatchExposure{Patch: group[0].Patch, Visit: group[0].Visit, built: lazy.Of(func() (*PatchExposure, error) { return mergeGroup(group, order) })})
			continue
		}
		pe, err := mergeGroup(group, order)
		if err != nil {
			return nil, err
		}
		out = append(out, pe)
	}
	return out, nil
}

// mergeGroup builds the pieces of one (patch, visit), orders them and
// merges them into the first.
func mergeGroup(group []*PatchExposure, order func([]*PatchExposure)) (*PatchExposure, error) {
	built, err := build(group)
	if err != nil {
		return nil, err
	}
	if order != nil {
		order(built)
	}
	for _, pe := range built[1:] {
		if err := Merge(built[0], pe); err != nil {
			return nil, err
		}
	}
	return built[0], nil
}

// Coadd is the co-added image of one patch across visits.
type Coadd struct {
	Patch   Patch
	Flux    *imaging.Image // per-pixel sum of clipped stack
	NVisits *imaging.Image // per-pixel count of contributing visits
}

// CoaddPatch stacks the given patch exposures (all for the same patch,
// different visits) with iterative outlier rejection: in each of iters
// rounds it computes the per-pixel mean and standard deviation across
// visits and nulls samples more than nsigma standard deviations from the
// mean; it then sums the surviving samples (the paper's Step 3A, with
// iters=2, nsigma=3).
func CoaddPatch(stack []*PatchExposure, nsigma float64, iters int) (*Coadd, error) {
	st, err := NewCoaddState(stack)
	if err != nil {
		return nil, err
	}
	for it := 0; it < iters; it++ {
		st.ClipIteration(nsigma)
	}
	return st.Sum(), nil
}

// CoaddState exposes co-addition one clipping iteration at a time, for
// engines whose iteration is driven externally (SciDB's AQL statements run
// one materialized pass per iteration).
type CoaddState struct {
	stack []*PatchExposure
	alive [][]bool
}

// NewCoaddState starts a stepwise co-addition over the stack, built.
func NewCoaddState(stack []*PatchExposure) (*CoaddState, error) {
	if len(stack) == 0 {
		return nil, fmt.Errorf("skymap: empty coadd stack")
	}
	stack, err := build(stack)
	if err != nil {
		return nil, err
	}
	p := stack[0].Patch
	for _, pe := range stack {
		if pe.Patch != p || pe.Flux.W != stack[0].Flux.W || pe.Flux.H != stack[0].Flux.H {
			return nil, fmt.Errorf("skymap: inconsistent stack for %v", p)
		}
	}
	st := &CoaddState{stack: stack}
	for _, pe := range stack {
		st.alive = append(st.alive, append([]bool(nil), pe.Valid...))
	}
	return st, nil
}

// build returns the stack's pieces built.
func build(stack []*PatchExposure) ([]*PatchExposure, error) {
	out := make([]*PatchExposure, len(stack))
	for i, pe := range stack {
		var err error
		if out[i], err = pe.Built(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ClipIteration performs one mean/std outlier-rejection pass.
func (st *CoaddState) ClipIteration(nsigma float64) {
	clipOnce(st.stack, st.alive, nsigma)
}

// Sum produces the final coadd from the surviving samples.
func (st *CoaddState) Sum() *Coadd {
	w, h := st.stack[0].Flux.W, st.stack[0].Flux.H
	co := &Coadd{
		Patch:   st.stack[0].Patch,
		Flux:    imaging.NewImage(w, h),
		NVisits: imaging.NewImage(w, h),
	}
	for v, pe := range st.stack {
		for i, ok := range st.alive[v] {
			if ok {
				co.Flux.Pix[i] += pe.Flux.Pix[i]
				co.NVisits.Pix[i]++
			}
		}
	}
	return co
}

// clipOnce performs one mean/std pass and nulls >nsigma outliers.
func clipOnce(stack []*PatchExposure, alive [][]bool, nsigma float64) {
	n := len(stack[0].Valid)
	for i := 0; i < n; i++ {
		var sum, sq float64
		var cnt int
		for v := range stack {
			if alive[v][i] {
				f := stack[v].Flux.Pix[i]
				sum += f
				sq += f * f
				cnt++
			}
		}
		if cnt < 3 {
			continue // too few samples to clip meaningfully
		}
		mean := sum / float64(cnt)
		variance := sq/float64(cnt) - mean*mean
		if variance <= 0 {
			continue
		}
		std := math.Sqrt(variance)
		for v := range stack {
			if alive[v][i] && math.Abs(stack[v].Flux.Pix[i]-mean) > nsigma*std {
				alive[v][i] = false
			}
		}
	}
}

// GroupByPatch buckets patch exposures by patch, preserving visit order
// within each bucket, returning patches in row-major order.
func GroupByPatch(pes []*PatchExposure) (patches []Patch, groups map[Patch][]*PatchExposure) {
	groups = make(map[Patch][]*PatchExposure)
	for _, pe := range pes {
		if _, ok := groups[pe.Patch]; !ok {
			patches = append(patches, pe.Patch)
		}
		groups[pe.Patch] = append(groups[pe.Patch], pe)
	}
	sort.Slice(patches, func(i, j int) bool {
		if patches[i].PY != patches[j].PY {
			return patches[i].PY < patches[j].PY
		}
		return patches[i].PX < patches[j].PX
	})
	return patches, groups
}
