package imaging_test

import (
	"math"
	"testing"

	"imagebench/internal/astro"
	"imagebench/internal/imaging"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
)

// oraclePreprocess is astro.Preprocess composed from the oracle kernels.
func oraclePreprocess(e *skymap.Exposure) *skymap.Exposure {
	out := e.Clone()
	bg := imaging.OracleEstimateBackground(out.Flux, astro.BackgroundCell)
	for i := range out.Flux.Pix {
		out.Flux.Pix[i] -= bg.Pix[i]
	}
	hits := imaging.OracleDetectCosmicRays(out.Flux, out.Var, astro.CRSigma)
	imaging.RepairPixels(out.Flux, out.Mask, hits, skymap.MaskCosmicRay)
	if corr := astro.ApertureCorrection(out.Flux); corr != 1 {
		for i := range out.Flux.Pix {
			out.Flux.Pix[i] *= corr
		}
		for i := range out.Var.Pix {
			out.Var.Pix[i] *= corr * corr
		}
	}
	return out
}

// TestPreprocessMatchesOracle is the pipeline-level check: Step 1A on
// every exposure of a quick-profile workload (4 visits of 4 32×32 sensors,
// through the FITS codec) equals the oracle composition in flux, variance
// and mask bits.
func TestPreprocessMatchesOracle(t *testing.T) {
	cfg := synth.DefaultAstro(4)
	cfg.Sensors, cfg.W, cfg.H, cfg.Sources = 4, 32, 32, 10
	w, err := astro.NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exposures, err := astro.LoadExposures(w.Store)
	if err != nil {
		t.Fatal(err)
	}
	if len(exposures) != cfg.Visits*cfg.Sensors {
		t.Fatalf("loaded %d exposures, want %d", len(exposures), cfg.Visits*cfg.Sensors)
	}
	repaired := 0
	for _, e := range exposures {
		got, want := astro.Preprocess(e), oraclePreprocess(e)
		for i := range want.Flux.Pix {
			if math.Float64bits(got.Flux.Pix[i]) != math.Float64bits(want.Flux.Pix[i]) ||
				math.Float64bits(got.Var.Pix[i]) != math.Float64bits(want.Var.Pix[i]) ||
				got.Mask[i] != want.Mask[i] {
				t.Fatalf("visit %d sensor %d pixel %d: flux %v var %v mask %d, oracle %v %v %d", e.Visit, e.Sensor, i,
					got.Flux.Pix[i], got.Var.Pix[i], got.Mask[i], want.Flux.Pix[i], want.Var.Pix[i], want.Mask[i])
			}
			if want.Mask[i]&skymap.MaskCosmicRay != 0 {
				repaired++
			}
		}
	}
	if repaired == 0 {
		t.Error("no cosmic ray repaired in the whole workload: the comparison exercised nothing")
	}
}
