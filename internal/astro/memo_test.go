package astro

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"imagebench/internal/fits"
	"imagebench/internal/memo"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
)

// unseenSeed numbers the surveys these tests make up, -count=N included.
var unseenSeed atomic.Int64

// unseenWorkload returns a survey no other test and no earlier call has
// staged, so the memo starts cold on it.
func unseenWorkload(t *testing.T, visits int) *Workload {
	t.Helper()
	cfg := synth.DefaultAstro(visits)
	cfg.Sensors, cfg.W, cfg.H, cfg.Sources = 4, 32, 32, 10
	cfg.Seed = 1000 + unseenSeed.Add(1)
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

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

// decodes returns how many decodes ran since before.
func decodes(before memo.Stats) uint64 {
	return memo.Snapshot().Kinds[memo.Decode].Misses - before.Kinds[memo.Decode].Misses
}

// Spark, Myria and Dask, cold and then warm, return the reference's
// result bit for bit; the reference itself never touches the memo; the
// cold pass decodes each distinct exposure once for all three engines,
// and the warm pass decodes nothing.
func TestEnginesColdAndWarmEqualReference(t *testing.T) {
	w := unseenWorkload(t, 4)
	distinct := map[[32]byte]bool{}
	for _, key := range w.Store.List("astro/fits/") {
		obj, _ := w.Store.Get(key)
		distinct[obj.Digest()] = true
	}
	before := memo.Snapshot()
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if after := memo.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("Reference moved the memo: %+v → %+v", before, after)
	}
	engines := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"spark", func() (*Result, error) { return force(RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8})) }},
		{"myria", func() (*Result, error) { return force(RunMyria(w, testCluster(), nil, MyriaOpts{})) }},
		{"dask", func() (*Result, error) { return force(RunDask(w, testCluster(), nil)) }},
	}
	for _, pass := range []string{"cold", "warm"} {
		before := memo.Snapshot()
		for _, e := range engines {
			got, err := e.run()
			if err != nil {
				t.Fatalf("%s %s: %v", pass, e.name, err)
			}
			wantBitEqual(t, pass+" "+e.name, got, ref)
		}
		want := uint64(0)
		if pass == "cold" {
			want = uint64(len(distinct))
		}
		if got := decodes(before); got != want {
			t.Errorf("%s pass: %d decodes, want %d", pass, got, want)
		}
	}
	// Fig 12d's stacks come through the same memo and equal the pure path's.
	before = memo.Snapshot()
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	if n := decodes(before); n != 0 {
		t.Errorf("BuildStacks after the engines computed %d decodes", n)
	}
	exposures, err := LoadExposures(w.Store)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exposures {
		exposures[i] = Preprocess(e)
	}
	pure, err := CreatePatches(w.Grid(), exposures)
	if err != nil || len(pure) != len(stacks) {
		t.Fatalf("pure stacks: %d (%v), memoized %d", len(pure), err, len(stacks))
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

// A corrupt object fails on every call, through the memo as through
// the decoder, and is never kept; an inconsistent or empty stack fails
// to co-add.
func TestFailuresPassThroughTheMemo(t *testing.T) {
	w := unseenWorkload(t, 1)
	good, _ := w.Store.Get(w.Store.List("astro/fits/")[0])
	st := objstore.New()
	st.Put("astro/fits/cut.fits", good.Data[:len(good.Data)/2], 0)
	cut, _ := st.Get("astro/fits/cut.fits")
	before := memo.Snapshot()
	for round := 0; round < 3; round++ {
		e, err := fits.DecodeStaged(cut)
		_, want := fits.DecodeExposure(cut.Data)
		if e != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: %v, %v; DecodeExposure says %v", round, e, err, want)
		}
	}
	if decode := decodes(before); decode != 3 || memo.Snapshot().Bytes != before.Bytes {
		t.Errorf("three failed decodes: %d computed, table bytes %d → %d", decode, before.Bytes, memo.Snapshot().Bytes)
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
	w := unseenWorkload(t, 101)
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
