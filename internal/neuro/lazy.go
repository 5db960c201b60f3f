package neuro

import (
	"errors"
	"fmt"

	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/lazy"
	"imagebench/internal/volume"
)

// The engine models' record values past decoding are computed when
// first read (package lazy): a UDF hands on a value over its inputs'
// values, and the stages run only when a caller forces the pipeline's
// output. Segment, Denoise, FitBlock and Reference stay eager and pure.

// Output is what RunSpark, RunMyria and RunDask return: their Result,
// computed when first read (Force).
type Output = lazy.Value[*Result]

// lazyVol is a volume computed when first read.
type lazyVol = lazy.Value[*volume.V3]

// reader is a record's volume: computed when read (a *lazyVol, a
// slab) or at hand (held).
type reader interface{ Force() (*volume.V3, error) }

// held is a volume at hand (a decoded input) as a reader.
func held(v *volume.V3) reader { return ready{v} }

type ready struct{ v *volume.V3 }

func (r ready) Force() (*volume.V3, error) { return r.v, nil }

// over is f of vs once read.
func over[R reader](vs []R, f func([]*volume.V3) (*volume.V3, error)) *lazyVol {
	return lazy.Of(func() (*volume.V3, error) {
		in := make([]*volume.V3, len(vs))
		for i, v := range vs {
			var err error
			if in[i], err = v.Force(); err != nil {
				return nil, err
			}
		}
		return f(in)
	})
}

// then is f of v once read.
func then(v reader, f func(*volume.V3) *volume.V3) *lazyVol {
	return lazy.Of(func() (*volume.V3, error) {
		x, err := v.Force()
		if err != nil {
			return nil, err
		}
		return f(x), nil
	})
}

// segmentOnRead is Segment as the engine models run it: the mean, then
// the median filter and Otsu threshold.
func segmentOnRead(b0 []*volume.V3) *lazyVol {
	return segmentFromMean(lazy.Of(func() (*volume.V3, error) { return volume.Mean3(b0), nil }))
}

// meanOnRead is volume.Mean3 of vols.
func meanOnRead[R reader](vols []R) *lazyVol {
	return over(vols, func(in []*volume.V3) (*volume.V3, error) { return volume.Mean3(in), nil })
}

// denoiseOnRead is Denoise (Step 2N) of v under mask; a nil mask is
// none.
func denoiseOnRead(v, mask reader) *lazyVol {
	return lazy.Of(func() (*volume.V3, error) {
		x, err := v.Force()
		var m *volume.V3
		if err == nil && mask != nil {
			m, err = mask.Force()
		}
		if err != nil {
			return nil, err
		}
		return Denoise(x, m), nil
	})
}

// smoothOnRead is imaging.GaussianSmooth3 of v (TensorFlow's
// convolutional rewrite of Step 2N).
func smoothOnRead(v reader, sigma float64) *lazyVol {
	return then(v, func(x *volume.V3) *volume.V3 { return imaging.GaussianSmooth3(x, sigma) })
}

// slab is block b of volume v, cut when read (blockOnRead).
type slab struct {
	v reader
	b volume.Block
}

// blockOnRead is block b of v: a value, not a lazy.Value, since each
// repartitioned record holds one and only the fit that groups it reads
// it.
func blockOnRead(v reader, b volume.Block) slab { return slab{v, b} }

// Force is volume.ExtractBlock of the volume, cut anew on every call:
// only the value that groups the slab (a fit, Dask's block mean) reads
// it, once.
func (s slab) Force() (*volume.V3, error) {
	x, err := s.v.Force()
	if err != nil {
		return nil, err
	}
	return volume.ExtractBlock(x, s.b), nil
}

// fitOnRead is FitBlock (Step 3N) of slabs under mask. A block of no
// slabs fails now, a kernel error when read.
func fitOnRead(g *dmri.GradTable, slabs []slab, mask slab) (*lazyVol, error) {
	if len(slabs) == 0 {
		return nil, fmt.Errorf("neuro: fit of no slabs")
	}
	n := len(slabs)
	return over(append(slabs[:n:n], mask), func(in []*volume.V3) (*volume.V3, error) { return FitBlock(g, in[:n], in[n]) }), nil
}

// assembly is a volume put together from z-slabs when read.
type assembly struct {
	nx, ny, nz int
	blocks     []volume.Block
	slabs      []*lazyVol
}

func newAssembly(nx, ny, nz int) *assembly { return &assembly{nx: nx, ny: ny, nz: nz} }

func (a *assembly) InsertBlock(b volume.Block, slab *lazyVol) {
	a.blocks, a.slabs = append(a.blocks, b), append(a.slabs, slab)
}

func (a *assembly) onRead() *lazyVol {
	return over(a.slabs, func(in []*volume.V3) (*volume.V3, error) {
		v := volume.New3(a.nx, a.ny, a.nz)
		for i, b := range a.blocks {
			volume.InsertBlock(v, b, in[i])
		}
		return v, nil
	})
}

// resultOnRead is what Spark, Myria and Dask collect: a Result to be.
type resultOnRead struct{ Subjects map[int]*subjectOnRead }

type subjectOnRead struct {
	Subject int
	Mask    *lazyVol
	FA      *assembly
}

func (r *resultOnRead) onRead() *Output {
	return lazy.Of(func() (*Result, error) {
		res := &Result{Subjects: make(map[int]*SubjectResult, len(r.Subjects))}
		for s, sr := range r.Subjects {
			mask, err := sr.Mask.Force()
			fa, ferr := sr.FA.onRead().Force()
			if err = errors.Join(err, ferr); err != nil {
				return nil, err
			}
			res.Subjects[s] = &SubjectResult{Subject: sr.Subject, Mask: mask, FA: fa}
		}
		return res, nil
	})
}

// masksOnRead is what SciDB and TensorFlow collect: masks and denoised
// volumes to be.
type masksOnRead struct {
	Masks    map[int]*lazyVol
	Denoised map[string]reader
}

func (r *masksOnRead) scidb() *lazy.Value[*SciDBResult] {
	return lazy.Of(func() (*SciDBResult, error) {
		masks, err := forceMap(r.Masks)
		den, derr := forceMap(r.Denoised)
		return &SciDBResult{Masks: masks, Denoised: den}, errors.Join(err, derr)
	})
}

func (r *masksOnRead) tf() *lazy.Value[*TFResult] {
	return lazy.Of(func() (*TFResult, error) {
		masks, err := forceMap(r.Masks)
		den, derr := forceMap(r.Denoised)
		return &TFResult{Masks: masks, Denoised: den}, errors.Join(err, derr)
	})
}

func forceMap[K comparable, V reader](m map[K]V) (map[K]*volume.V3, error) {
	out := make(map[K]*volume.V3, len(m))
	for k, v := range m {
		var err error
		if out[k], err = v.Force(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
