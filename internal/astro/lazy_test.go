package astro

import (
	"slices"
	"sync"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/lazy"
	"imagebench/internal/skymap"
	"imagebench/internal/vtime"
)

// One deferred patch stack, forced from eight goroutines at once as a
// co-add, calibrates and projects each exposure, merges each visit and
// co-adds the stack once, and gives every goroutine the bits CoaddPatch
// gives the pure path's projected stack.
func TestDeferredCoaddForcesOnceUnderConcurrency(t *testing.T) {
	w := smallWorkload(t, 4)
	g := w.Grid()
	var decoded []*skymap.Exposure
	for _, key := range w.Store.List("astro/fits/") {
		obj, _ := w.Store.Get(key)
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, e)
	}
	touches := map[skymap.Patch]int{}
	var p skymap.Patch
	for _, e := range decoded {
		for _, q := range g.ExposureOverlaps(e) {
			if touches[q]++; touches[q] > touches[p] {
				p = q
			}
		}
	}
	var touching []*skymap.Exposure
	var pieces []*skymap.PatchExposure
	for _, e := range decoded {
		if slices.Contains(g.ExposureOverlaps(e), p) {
			touching = append(touching, e)
			pieces = append(pieces, g.Defer(preprocessOnRead(e), p))
		}
	}
	stack, err := skymap.Assemble(pieces, sortPatchExposures)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coaddOnRead(stack, ClipSigma, ClipIters)
	if err != nil {
		t.Fatal(err)
	}
	before := lazy.Computed()
	got := make([]*skymap.Coadd, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = co.value.Force(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// A calibration and a projected piece per exposure, a merge per
	// visit, the coadd.
	if n, want := lazy.Computed()-before, uint64(2*len(touching)+len(stack)+1); n != want {
		t.Errorf("the co-add computed %d values, want %d", n, want)
	}

	var projected []*skymap.PatchExposure
	for _, e := range touching {
		projected = append(projected, g.Project(Preprocess(e), p))
	}
	sortPatchExposures(projected)
	pure, err := skymap.AssemblePatches(projected)
	if err != nil {
		t.Fatal(err)
	}
	want, err := skymap.CoaddPatch(pure, ClipSigma, ClipIters)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d got another coadd than goroutine 0", i)
		}
	}
	if len(stack) < 2 || !sameCoadd(got[0], want) {
		t.Errorf("a stack of %d visits co-adds to other bits than the pure path's", len(stack))
	}
}

// The Fig 12d Spark and Myria step runners time Step 3A and compute
// none of it: nothing reads what a runner's UDF returns, so both over
// fresh stacks compute no lazy value, a piece of a stack included.
func TestCoaddStepRunnersComputeNothing(t *testing.T) {
	w := smallWorkload(t, 4)
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(*Workload, *cluster.Cluster, *cost.Model, []*skymap.PatchExposure) (vtime.Duration, error)
	}{{"Spark", SparkCoadd}, {"Myria", MyriaCoadd}}
	before := lazy.Computed()
	for _, r := range runners {
		if d, err := r.run(w, testCluster(), cost.Default(), stacks); err != nil || d <= 0 {
			t.Fatalf("%s: %v after %v", r.name, err, d)
		}
	}
	if n := lazy.Computed() - before; n != 0 {
		t.Errorf("the co-addition step runners computed %d lazy values", n)
	}
}
