package astro

import (
	"slices"
	"sync"
	"testing"

	"imagebench/internal/fits"
	"imagebench/internal/memo"
	"imagebench/internal/skymap"
)

// One deferred patch stack, forced from eight goroutines at once as a
// co-add, calibrates each exposure and co-adds the stack once (one memo
// miss each, no hit) and gives every goroutine the bits CoaddPatch
// gives the pure path's projected stack.
func TestDeferredCoaddForcesOnceUnderConcurrency(t *testing.T) {
	w := unseenWorkload(t, 4)
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
	before := memo.Snapshot()
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
	after := memo.Snapshot()
	for k, want := range map[memo.Kind]uint64{memo.Calibrate: uint64(len(touching)), memo.Coadd: 1} {
		if hits, misses := after.Kinds[k].Hits-before.Kinds[k].Hits, after.Kinds[k].Misses-before.Kinds[k].Misses; hits != 0 || misses != want {
			t.Errorf("%s: %d hits and %d misses, want none and %d", k, hits, misses, want)
		}
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
