package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

	"imagebench/internal/astro"
	"imagebench/internal/engine"
	"imagebench/internal/lazy"
	"imagebench/internal/neuro"
	"imagebench/internal/volume"
)

// CheckOutputs forces every engine's end-to-end outputs once, on the
// profile's smallest cell, and holds them to the reference
// implementation's results there, at the engine tests' tolerances, and
// every engine's unmasked denoise (SciDB's, TensorFlow's) to the first
// one's bit for bit. The tables come from declared sizes and read no
// pixel, so this is where a pass over the experiments checks that the
// engines compute the paper's answer.
func CheckOutputs(ctx context.Context, p Profile) error {
	nw, err := neuroWorkload(p, p.NeuroSubjects[0])
	if err != nil {
		return err
	}
	aw, err := astroWorkload(p, p.AstroVisits[0])
	if err != nil {
		return err
	}
	nref, err := neuro.Reference(nw)
	if err != nil {
		return err
	}
	aref, err := astro.Reference(aw)
	if err != nil {
		return err
	}
	var den map[string]*volume.V3 // the first engine's unmasked denoise
	var denBy string
	for _, e := range p.filterEngines(engine.All()) {
		var d map[string]*volume.V3
		res, err := e.RunNeuro(ctx, nw, runCluster(defaultNodes(p), nw.InputModelBytes()), model, engine.Opts{CacheInput: true})
		if err == nil {
			d, err = checkNeuro(res.Output, nw, nref)
		}
		if err == nil && d != nil {
			if den == nil {
				den, denBy = d, e.Name()
			} else {
				err = sameDenoise(d, den, denBy)
			}
		}
		if err != nil {
			return fmt.Errorf("%s neuroscience output: %w", e.Name(), err)
		}
		res, err = e.RunAstro(ctx, aw, runCluster(defaultNodes(p), aw.InputModelBytes()), model, engine.Opts{})
		if err == nil {
			err = checkAstro(res.Output, aref)
		}
		if err != nil && !errors.Is(err, engine.ErrUnsupported) {
			return fmt.Errorf("%s astronomy output: %w", e.Name(), err)
		}
	}
	return nil
}

// checkNeuro forces out, a neuroscience output on w, and holds it to
// ref: each subject's mask bit for bit, and its FA within 1e-9 (the
// engines fit slabs the reference streams, so sums run in another
// order). SciDB and TensorFlow stop at Step 2N, denoising without the
// mask: one volume of w's shape per input, which checkNeuro returns by
// volume key, and SciDB's masks bit for bit, TensorFlow's (a threshold,
// not Otsu) bit for bit to their own rule (neuro.TFMask).
func checkNeuro(out any, w *neuro.Workload, ref *neuro.Result) (map[string]*volume.V3, error) {
	var masks map[int]*volume.V3
	var den map[string]*volume.V3
	switch out := out.(type) {
	case *neuro.Output:
		r, err := out.Force()
		if err != nil {
			return nil, err
		}
		if len(r.Subjects) != len(ref.Subjects) {
			return nil, fmt.Errorf("%d subjects, the reference has %d", len(r.Subjects), len(ref.Subjects))
		}
		for s, want := range ref.Subjects {
			if got := r.Subjects[s]; got == nil || !within(got.Mask, want.Mask, 0) || !within(got.FA, want.FA, 1e-9) {
				return nil, fmt.Errorf("subject %d: mask or FA differs from the reference's", s)
			}
		}
		return nil, nil
	case *lazy.Value[*neuro.SciDBResult]:
		r, err := out.Force()
		if err != nil {
			return nil, err
		}
		for s, want := range ref.Subjects {
			if !within(r.Masks[s], want.Mask, 0) {
				return nil, fmt.Errorf("subject %d: mask differs from the reference's", s)
			}
		}
		masks, den = r.Masks, r.Denoised
	case *lazy.Value[*neuro.TFResult]:
		r, err := out.Force()
		if err != nil {
			return nil, err
		}
		for s := range ref.Subjects {
			if want, err := neuro.TFMask(w, s); err != nil || !within(r.Masks[s], want, 0) {
				return nil, cmp.Or(err, fmt.Errorf("subject %d: mask differs from its threshold rule's", s))
			}
		}
		masks, den = r.Masks, r.Denoised
	default:
		return nil, fmt.Errorf("unknown output %T", out)
	}
	if len(masks) != len(ref.Subjects) || len(den) != w.Subjects*w.Cfg.T {
		return nil, fmt.Errorf("%d masks and %d denoised volumes", len(masks), len(den))
	}
	for key, v := range den {
		if v.NX != w.Cfg.NX || v.NY != w.Cfg.NY || v.NZ != w.Cfg.NZ {
			return nil, fmt.Errorf("denoised %s is %dx%dx%d", key, v.NX, v.NY, v.NZ)
		}
	}
	return den, nil
}

// sameDenoise holds got, one engine's denoised volumes by key, to want,
// the ones the engine named by computed, bit for bit.
func sameDenoise(got, want map[string]*volume.V3, by string) error {
	for key, w := range want {
		g := got[key]
		if g == nil || !g.SameShape(w) {
			return fmt.Errorf("denoised %s is missing or not %s's shape", key, by)
		}
		for i, x := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(x) {
				return fmt.Errorf("denoised %s differs from %s's at voxel %d", key, by, i)
			}
		}
	}
	return nil
}

func within(got, want *volume.V3, tol float64) bool {
	return got != nil && got.SameShape(want) && volume.MaxAbsDiff(got, want) <= tol
}

// checkAstro forces out, an astronomy output, and holds it to ref: the
// same patches, each coadd's flux within 1e-9 and as many sources.
func checkAstro(out any, ref *astro.Result) error {
	o, ok := out.(*astro.Output)
	if !ok {
		return fmt.Errorf("unknown output %T", out)
	}
	r, err := o.Force()
	if err != nil {
		return err
	}
	if len(r.Patches) != len(ref.Patches) {
		return fmt.Errorf("%d patches, the reference has %d", len(r.Patches), len(ref.Patches))
	}
	for p, want := range ref.Patches {
		got := r.Patches[p]
		if got == nil || len(got.Coadd.Flux.Pix) != len(want.Coadd.Flux.Pix) || len(got.Sources) != len(want.Sources) {
			return fmt.Errorf("%v: coadd or sources differ from the reference's", p)
		}
		for i, x := range want.Coadd.Flux.Pix {
			if d := math.Abs(got.Coadd.Flux.Pix[i] - x); !(d <= 1e-9) {
				return fmt.Errorf("%v: coadd flux differs by %g", p, d)
			}
		}
	}
	return nil
}
