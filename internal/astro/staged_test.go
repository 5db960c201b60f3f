package astro

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"imagebench/internal/fits"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// wantBitEqual holds an engine's result to the reference's, bit for bit.
func wantBitEqual(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Patches) != len(want.Patches) {
		t.Fatalf("%s: %d patches, the reference has %d", name, len(got.Patches), len(want.Patches))
	}
	for p, wp := range want.Patches {
		gp := got.Patches[p]
		if gp == nil || gp.Patch != p || gp.Coadd.Patch != p {
			t.Fatalf("%s: %v missing or mislabelled", name, p)
		}
		if !sameBits(gp.Coadd.Flux.Pix, wp.Coadd.Flux.Pix) || !sameBits(gp.Coadd.NVisits.Pix, wp.Coadd.NVisits.Pix) {
			t.Errorf("%s: %v coadd differs from the reference's in some bit", name, p)
		}
		if len(gp.Sources) != len(wp.Sources) {
			t.Fatalf("%s: %v has %d sources, the reference %d", name, p, len(gp.Sources), len(wp.Sources))
		}
		for i, ws := range wp.Sources {
			gs := gp.Sources[i]
			if gs.ID != ws.ID || gs.NPix != ws.NPix ||
				!sameBits([]float64{gs.X, gs.Y, gs.Flux, gs.PeakFlux}, []float64{ws.X, ws.Y, ws.Flux, ws.PeakFlux}) {
				t.Errorf("%s: %v source %d is %+v, the reference's %+v", name, p, i, gs, ws)
			}
		}
	}
}

// sameExposure reports whether a and b are the same exposure, bit for
// bit.
func sameExposure(a, b *skymap.Exposure) bool {
	return a.Visit == b.Visit && a.Sensor == b.Sensor && a.X0 == b.X0 && a.Y0 == b.Y0 &&
		a.Flux.W == b.Flux.W && a.Flux.H == b.Flux.H && bytes.Equal(a.Mask, b.Mask) &&
		sameBits(a.Flux.Pix, b.Flux.Pix) && sameBits(a.Var.Pix, b.Var.Pix)
}

// wantHeld returns the exposure held on each of w's FITS objects, in key
// order, and fails the test for an object that holds none.
func wantHeld(t *testing.T, w *Workload) []*skymap.Exposure {
	t.Helper()
	var held []*skymap.Exposure
	for _, key := range w.Store.List("astro/fits/") {
		obj, _ := w.Store.Get(key)
		v, err := obj.Decoded(func(data []byte) (any, error) {
			t.Errorf("%s holds no decode", key)
			return fits.DecodeExposure(data)
		})
		e, _ := v.(*skymap.Exposure)
		if err != nil || e == nil {
			t.Fatalf("%s: %v", key, err)
		}
		held = append(held, e)
	}
	return held
}

// Spark, Myria and Dask, cold and then warm, return the reference's
// result bit for bit; the cold pass leaves every exposure decoded and
// held on its object, and the warm pass reads those same values. The
// pure names never hand out a held pointer: the reference's
// LoadExposures decodes its own, equal to the held ones.
func TestEnginesColdAndWarmEqualReference(t *testing.T) {
	w := smallWorkload(t, 4)
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"spark", func() (*Result, error) { return force(RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8})) }},
		{"myria", func() (*Result, error) { return force(RunMyria(w, testCluster(), nil, MyriaOpts{})) }},
		{"dask", func() (*Result, error) { return force(RunDask(w, testCluster(), nil)) }},
	}
	var held []*skymap.Exposure
	for _, pass := range []string{"cold", "warm"} {
		for _, e := range engines {
			got, err := e.run()
			if err != nil {
				t.Fatalf("%s %s: %v", pass, e.name, err)
			}
			wantBitEqual(t, pass+" "+e.name, got, ref)
		}
		if pass == "cold" {
			held = wantHeld(t, w)
		}
	}
	// Fig 12d's stacks come through the same held values and equal the
	// pure path's.
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	exposures, err := LoadExposures(w.Store)
	if err != nil {
		t.Fatal(err)
	}
	if len(exposures) != len(held) {
		t.Fatalf("LoadExposures read %d exposures, %d are held", len(exposures), len(held))
	}
	for i, e := range exposures {
		if e == held[i] {
			t.Errorf("exposure %d: LoadExposures returned the held pointer", i)
		}
		if !sameExposure(e, held[i]) {
			t.Errorf("exposure %d: the held value differs from a fresh decode", i)
		}
		exposures[i] = Preprocess(e)
	}
	pure, err := CreatePatches(w.Grid(), exposures)
	if err != nil || len(pure) != len(stacks) {
		t.Fatalf("pure stacks: %d (%v), BuildStacks %d", len(pure), err, len(stacks))
	}
	for i, pe := range pure {
		got, err := stacks[i].Built()
		if err != nil {
			t.Fatal(err)
		}
		if got.Patch != pe.Patch || got.Visit != pe.Visit || !reflect.DeepEqual(got.Valid, pe.Valid) ||
			!sameBits(got.Flux.Pix, pe.Flux.Pix) || !sameBits(got.Var.Pix, pe.Var.Pix) {
			t.Errorf("stack %d (%v visit %d) differs from the pure path's", i, pe.Patch, pe.Visit)
		}
	}
}

// A corrupt object fails on every call with the decoder's error, held
// on the object like a value; an inconsistent or empty stack fails to
// co-add.
func TestFailuresPassThroughTheMemo(t *testing.T) {
	w := smallWorkload(t, 1)
	good, _ := w.Store.Get(w.Store.List("astro/fits/")[0])
	st := objstore.New()
	st.Put("astro/fits/cut.fits", good.Data[:len(good.Data)/2], 0)
	cut, _ := st.Get("astro/fits/cut.fits")
	_, want := fits.DecodeExposure(cut.Data)
	var first error
	for round := 0; round < 3; round++ {
		e, err := fits.DecodeStaged(cut)
		if e != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: %v, %v; DecodeExposure says %v", round, e, err, want)
		}
		if round == 0 {
			first = err
		} else if err != first {
			t.Errorf("round %d: another error value than the held one", round)
		}
	}
	// The engines drop what they cannot decode, as they did.
	w.Store = st
	if res, err := force(RunSpark(w, testCluster(), nil, SparkOpts{})); err != nil || len(res.Patches) != 0 {
		t.Errorf("Spark over one corrupt object: %v, %v", res, err)
	}

	g := skymap.Grid{PatchW: 4, PatchH: 4}
	mixed := []*skymap.PatchExposure{skymap.NewPatchExposure(g, skymap.Patch{}, 0), skymap.NewPatchExposure(g, skymap.Patch{PX: 1}, 1)}
	if co, err := skymap.CoaddPatch(mixed, ClipSigma, ClipIters); co != nil || err == nil {
		t.Fatalf("an inconsistent stack co-added to %v, %v", co, err)
	}
	if co, err := skymap.CoaddPatch(nil, ClipSigma, ClipIters); co != nil || err == nil {
		t.Errorf("an empty stack co-added to %v, %v", co, err)
	}
}

func sameCoadd(a, b *skymap.Coadd) bool {
	return a.Patch == b.Patch && sameBits(a.Flux.Pix, b.Flux.Pix) && sameBits(a.NVisits.Pix, b.NVisits.Pix)
}

// Myria groups each co-addition by the piece's patch, not by cutting a
// two-digit visit suffix off its key: past 99 visits RunMyria still
// co-adds each patch's whole stack, as the reference does.
func TestMyriaCoaddsPastNinetyNineVisits(t *testing.T) {
	w := smallWorkload(t, 101)
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := force(RunMyria(w, testCluster(), nil, MyriaOpts{Mode: myria.MultiQuery, ChunkVisits: 25}))
	if err != nil {
		t.Fatal(err)
	}
	wantBitEqual(t, "RunMyria at 101 visits", got, ref)
}
