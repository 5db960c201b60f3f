package astro

import (
	"fmt"
	"slices"

	"imagebench/internal/lazy"
	"imagebench/internal/skymap"
)

// The engine models' record values past decoding are computed when
// first read (package lazy): Step 1A is a skymap.Pending exposure, Step
// 2A deferred pieces (Grid.Defer, skymap.Assemble), Steps 3A and 4A the
// values below. Each stage runs only when a caller forces the
// pipeline's output. Preprocess, Detect and Reference stay eager and
// pure.

// Output is what RunSpark, RunMyria and RunDask return: their Result,
// computed when first read (Force).
type Output = lazy.Value[*Result]

// CoaddOutput is what RunSciDBCoadd returns: each patch's coadd,
// computed when first read (Force).
type CoaddOutput = lazy.Value[map[skymap.Patch]*skymap.Coadd]

// onPatch is one patch's value, computed when first read, with the
// patch at hand for grouping and keys.
type onPatch[T any] struct {
	Patch skymap.Patch
	value *lazy.Value[T]
}

type lazyCoadd = onPatch[*skymap.Coadd]
type lazyPatch = onPatch[*PatchResult]

// preprocessOnRead is Preprocess of e; the header is e's, which
// Preprocess keeps.
func preprocessOnRead(e *skymap.Exposure) skymap.Pending {
	return skymap.Pending{Header: e, Pixels: lazy.Of(func() (*skymap.Exposure, error) { return Preprocess(e), nil })}
}

// overlaps is the patches e touches, with a record slice sized for one
// record per patch: Step 2A's flatmap emits exactly that many.
func overlaps[R any](g skymap.Grid, e skymap.Pending) ([]skymap.Patch, []R) {
	ps := g.ExposureOverlaps(e.Header)
	return ps, make([]R, 0, len(ps))
}

// coaddOnRead is skymap.CoaddPatch of one patch's stack.
func coaddOnRead(stack []*skymap.PatchExposure, nsigma float64, iters int) (*lazyCoadd, error) {
	if len(stack) == 0 {
		return nil, fmt.Errorf("astro: empty coadd stack")
	}
	return &lazyCoadd{stack[0].Patch, lazy.Of(func() (*skymap.Coadd, error) { return skymap.CoaddPatch(stack, nsigma, iters) })}, nil
}

// detectOnRead is Detect of co, with co, as the patch's result.
func detectOnRead(co *lazyCoadd) *lazyPatch {
	return &lazyPatch{co.Patch, lazy.Of(func() (*PatchResult, error) {
		c, err := co.value.Force()
		if err != nil {
			return nil, err
		}
		return &PatchResult{Patch: co.Patch, Coadd: c, Sources: Detect(c)}, nil
	})}
}

// resultOnRead is what Spark, Myria and Dask collect: a Result to be.
type resultOnRead struct{ Patches map[skymap.Patch]*lazyPatch }

func (r *resultOnRead) onRead() *Output {
	return lazy.Of(func() (*Result, error) {
		ps, err := forcePatches(r.Patches)
		return &Result{Patches: ps}, err
	})
}

// clipsOnRead is skymap.CoaddState as SciDB's AQL loop drives it, when
// read: the clipping passes are recorded as they are issued and run,
// over the stack built, when the coadd Sum returns is forced.
type clipsOnRead struct {
	stack  []*skymap.PatchExposure
	nsigma []float64
}

func newClipsOnRead(stack []*skymap.PatchExposure) (*clipsOnRead, error) {
	if len(stack) == 0 {
		return nil, fmt.Errorf("astro: empty coadd stack")
	}
	return &clipsOnRead{stack: stack}, nil
}

func (c *clipsOnRead) ClipIteration(nsigma float64) { c.nsigma = append(c.nsigma, nsigma) }

// Sum is the coadd after the passes recorded so far.
func (c *clipsOnRead) Sum() *lazyCoadd {
	stack, passes := c.stack, slices.Clone(c.nsigma)
	return &lazyCoadd{stack[0].Patch, lazy.Of(func() (*skymap.Coadd, error) {
		st, err := skymap.NewCoaddState(stack)
		if err != nil {
			return nil, err
		}
		for _, nsigma := range passes {
			st.ClipIteration(nsigma)
		}
		return st.Sum(), nil
	})}
}

// coaddsOnRead is what SciDB's co-addition collects: coadds to be.
type coaddsOnRead map[skymap.Patch]*lazyCoadd

func (cs coaddsOnRead) onRead() *CoaddOutput {
	return lazy.Of(func() (map[skymap.Patch]*skymap.Coadd, error) { return forcePatches(cs) })
}

func forcePatches[T any](m map[skymap.Patch]*onPatch[T]) (map[skymap.Patch]T, error) {
	out := make(map[skymap.Patch]T, len(m))
	for p, v := range m {
		var err error
		if out[p], err = v.value.Force(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
