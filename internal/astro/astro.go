// Package astro implements the paper's astronomy use case (Section 3.2):
// an abridged LSST processing pipeline over HiTS-style survey exposures —
// Step 1A pre-processing (background subtraction, cosmic-ray repair,
// aperture correction), Step 2A patch creation (exposure→patch flatmap and
// regrouping), Step 3A sigma-clipped co-addition, and Step 4A source
// detection — as a single-node reference implementation plus Spark, Myria,
// Dask, and SciDB (co-addition only) implementations, mirroring the
// paper's per-system structure.
package astro

import (
	"fmt"
	"math"
	"sort"

	"imagebench/internal/imaging"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
)

// Co-addition parameters from the paper: two outlier-removal iterations at
// three standard deviations.
const (
	ClipSigma = 3.0
	ClipIters = 2
	// DetectSigma and DetectMinPix parameterize Step 4A.
	DetectSigma  = 5.0
	DetectMinPix = 3
	// BackgroundCell is the background-mesh cell size in pixels.
	BackgroundCell = 16
	// CRSigma is the cosmic-ray detection threshold.
	CRSigma = 6.0
)

// Workload bundles the staged dataset and its geometry.
type Workload struct {
	Store  *objstore.Store
	Cfg    synth.AstroConfig
	Truth  []synth.TrueSource
	Visits int
}

// NewWorkload generates the synthetic dataset for n visits.
func NewWorkload(n int) (*Workload, error) {
	return NewWorkloadCfg(synth.DefaultAstro(n))
}

// NewWorkloadCfg is NewWorkload with explicit geometry.
func NewWorkloadCfg(cfg synth.AstroConfig) (*Workload, error) {
	store := objstore.New()
	truth, err := synth.GenAstro(store, cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Store: store, Cfg: cfg, Truth: truth, Visits: cfg.Visits}, nil
}

// Grid returns the patch grid for this workload.
func (w *Workload) Grid() skymap.Grid { return w.Cfg.Grid() }

// InputModelBytes returns the paper-scale input size: each scaled sensor
// stands for one full 80 MB HiTS sensor, so a visit with S sensors models
// S paper sensors.
func (w *Workload) InputModelBytes() int64 {
	return synth.PaperSensorBytes * int64(w.Cfg.Sensors) * int64(w.Visits)
}

// LargestIntermediateModelBytes returns the paper-scale size of the
// largest intermediate: the patch-replicated exposures, ~2.5× the input
// (the paper's Fig 10b).
func (w *Workload) LargestIntermediateModelBytes() int64 {
	return w.InputModelBytes() * 5 / 2
}

// PatchModelBytes is the paper-scale size of one patch exposure.
func (w *Workload) PatchModelBytes() int64 {
	g := w.Grid()
	frac := float64(g.PatchW*g.PatchH) / float64(w.Cfg.W*w.Cfg.H)
	return int64(float64(synth.PaperSensorBytes) * frac)
}

// PatchKey formats the record key for a patch, and VisitPatchKey for one
// visit's contribution to a patch.
func PatchKey(p skymap.Patch) string { return synth.FormatKey("p#_#", p.PX, p.PY) }

// VisitPatchKey keys one visit's patch exposure.
func VisitPatchKey(p skymap.Patch, visit int) string {
	return synth.FormatKey("p#_#/v##", p.PX, p.PY, visit)
}

// ParsePatchKey inverts PatchKey (ignoring any /vNN suffix).
func ParsePatchKey(key string) (skymap.Patch, error) {
	var p skymap.Patch
	if !synth.ScanKey(key, "p#_#", &p.PX, &p.PY) && !synth.ScanKey(key, "p#_#/v##", &p.PX, &p.PY, new(int)) {
		return p, fmt.Errorf("astro: bad patch key %q", key)
	}
	return p, nil
}

// PatchResult is the per-patch output of the pipeline.
type PatchResult struct {
	Patch   skymap.Patch
	Coadd   *skymap.Coadd
	Sources []imaging.Source
}

// Result is the output of one pipeline run.
type Result struct {
	Patches map[skymap.Patch]*PatchResult
}

// Preprocess runs Step 1A on one exposure: estimate and subtract the sky
// background, detect and repair cosmic rays, and apply the aperture
// correction. It returns a new calibrated exposure.
func Preprocess(e *skymap.Exposure) *skymap.Exposure {
	out := e.Clone()
	bg := imaging.EstimateBackground(out.Flux, BackgroundCell)
	for i := range out.Flux.Pix {
		out.Flux.Pix[i] -= bg.Pix[i]
	}
	hits := imaging.DetectCosmicRays(out.Flux, out.Var, CRSigma)
	imaging.RepairPixels(out.Flux, out.Mask, hits, skymap.MaskCosmicRay)
	corr := ApertureCorrection(out.Flux)
	if corr != 1 {
		for i := range out.Flux.Pix {
			out.Flux.Pix[i] *= corr
		}
		for i := range out.Var.Pix {
			out.Var.Pix[i] *= corr * corr
		}
	}
	return out
}

// ApertureCorrection estimates the photometric aperture correction from
// the brightest star's curve of growth: the ratio of flux inside a wide
// aperture to flux inside the measurement aperture. A flat or empty image
// yields 1.
func ApertureCorrection(flux *imaging.Image) float64 {
	// Locate the brightest pixel.
	best, bi := math.Inf(-1), -1
	for i, f := range flux.Pix {
		if f > best {
			best, bi = f, i
		}
	}
	if bi < 0 || best <= 0 {
		return 1
	}
	cx, cy := bi%flux.W, bi/flux.W
	aper := func(r int) float64 {
		var sum float64
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if dx*dx+dy*dy > r*r || !flux.In(cx+dx, cy+dy) {
					continue
				}
				if f := flux.At(cx+dx, cy+dy); f > 0 {
					sum += f
				}
			}
		}
		return sum
	}
	narrow, wide := aper(2), aper(5)
	if narrow <= 0 || wide <= narrow {
		return 1
	}
	corr := wide / narrow
	if corr > 2 { // a crowded or pathological field; stay conservative
		return 1
	}
	return corr
}

// CreatePatches runs Step 2A for a set of calibrated exposures: the
// flatmap projecting each exposure onto the 1–6 patches it overlaps,
// followed by per-(patch, visit) assembly.
func CreatePatches(g skymap.Grid, exposures []*skymap.Exposure) ([]*skymap.PatchExposure, error) {
	var pieces []*skymap.PatchExposure
	for _, e := range exposures {
		for _, p := range g.ExposureOverlaps(e) {
			pieces = append(pieces, g.Project(e, p))
		}
	}
	return skymap.AssemblePatches(pieces)
}

// CoaddAll runs Step 3A over assembled patch exposures, grouping by patch
// and stacking across visits with iterative outlier clipping.
func CoaddAll(pes []*skymap.PatchExposure) (map[skymap.Patch]*skymap.Coadd, error) {
	patches, groups := skymap.GroupByPatch(pes)
	out := make(map[skymap.Patch]*skymap.Coadd, len(patches))
	for _, p := range patches {
		stack := groups[p]
		sort.Slice(stack, func(i, j int) bool { return stack[i].Visit < stack[j].Visit })
		co, err := skymap.CoaddPatch(stack, ClipSigma, ClipIters)
		if err != nil {
			return nil, err
		}
		out[p] = co
	}
	return out, nil
}

// Detect runs Step 4A on one coadd.
func Detect(co *skymap.Coadd) []imaging.Source {
	return imaging.DetectSources(co.Flux, DetectSigma, DetectMinPix)
}

// LoadExposures decodes every staged FITS exposure, sorted by key.
func LoadExposures(store *objstore.Store) ([]*skymap.Exposure, error) {
	var out []*skymap.Exposure
	err := EachExposure(store, func(e *skymap.Exposure) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reference runs the single-node reference implementation (the Python +
// LSST-stack baseline): all four steps. Exposures stream through Steps
// 1A and 2A one at a time — load, calibrate, project onto overlapping
// patches, discard — so the pipeline holds the patch pieces (the
// co-addition input) but never the full exposure set. Piece order, and
// therefore every downstream result, is identical to the materialized
// form's.
func Reference(w *Workload) (*Result, error) {
	g := w.Grid()
	var pieces []*skymap.PatchExposure
	err := EachExposure(w.Store, func(e *skymap.Exposure) error {
		cal := Preprocess(e)
		for _, p := range g.ExposureOverlaps(cal) {
			piece := g.Project(cal, p)
			pieces = append(pieces, piece)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pes, err := skymap.AssemblePatches(pieces)
	if err != nil {
		return nil, err
	}
	coadds, err := CoaddAll(pes)
	if err != nil {
		return nil, err
	}
	res := &Result{Patches: make(map[skymap.Patch]*PatchResult, len(coadds))}
	for p, co := range coadds {
		res.Patches[p] = &PatchResult{Patch: p, Coadd: co, Sources: Detect(co)}
	}
	return res, nil
}
