package astro

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/imaging"
	"imagebench/internal/memo"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
	"imagebench/internal/vtime"
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

// misses returns how many computations each astronomy kind ran since
// before.
func misses(before memo.Stats) (decode, calibrate, coadd, detect uint64) {
	now := memo.Snapshot()
	d := func(k memo.Kind) uint64 { return now.Kinds[k].Misses - before.Kinds[k].Misses }
	return d(memo.Decode), d(memo.Calibrate), d(memo.Coadd), d(memo.Detect)
}

// Spark, Myria and Dask, cold and then warm, return the reference's
// result bit for bit; the reference itself never touches the memo; the
// cold pass computes each distinct exposure and each patch once for all
// three engines, and the warm pass computes nothing.
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
		{"spark", func() (*Result, error) { return RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8}) }},
		{"myria", func() (*Result, error) { return RunMyria(w, testCluster(), nil, MyriaOpts{}) }},
		{"dask", func() (*Result, error) { return RunDask(w, testCluster(), nil) }},
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
		decode, calibrate, coadd, detect := misses(before)
		want := [4]uint64{}
		if pass == "cold" {
			n, p := uint64(len(distinct)), uint64(len(ref.Patches))
			want = [4]uint64{n, n, p, p}
		}
		if got := [4]uint64{decode, calibrate, coadd, detect}; got != want {
			t.Errorf("%s pass: decode, calibrate, coadd, detect computed %v times, want %v", pass, got, want)
		}
	}
	// Fig 12d's stacks come through the same memo and equal the pure path's.
	before = memo.Snapshot()
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	if decode, calibrate, _, _ := misses(before); decode != 0 || calibrate != 0 {
		t.Errorf("BuildStacks after the engines computed %d decodes and %d calibrations", decode, calibrate)
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
		if got := stacks[i]; got.Patch != pe.Patch || got.Visit != pe.Visit || !reflect.DeepEqual(got.Valid, pe.Valid) ||
			!sameBits(got.Flux.Pix, pe.Flux.Pix) || !sameBits(got.Var.Pix, pe.Var.Pix) {
			t.Errorf("stack %d (%v visit %d) differs from the pure path's", i, pe.Patch, pe.Visit)
		}
	}
}

func sameExposure(a, b *skymap.Exposure) bool {
	return a.Visit == b.Visit && a.Sensor == b.Sensor && a.X0 == b.X0 && a.Y0 == b.Y0 &&
		sameBits(a.Flux.Pix, b.Flux.Pix) && sameBits(a.Var.Pix, b.Var.Pix) && reflect.DeepEqual(a.Mask, b.Mask)
}

// forceReset claims more than the budget in two entries, so the table
// drops what it held.
func forceReset(t *testing.T) {
	t.Helper()
	resets := memo.Snapshot().Resets
	for i := 0; i < 2; i++ {
		k := memo.NewKey(memo.Detect)
		k.U64(uint64(unseenSeed.Add(1)))
		if _, err := k.Shared(func() (any, int64, error) { return new(int), 40 << 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Snapshot().Resets == resets {
		t.Fatal("80 MiB of claims did not reset the table")
	}
}

// Lineage is identity, never content and never copied: a clone of a
// handed-out exposure with one pixel changed gets its own calibration,
// an unchanged clone gets the original's bits by content, and an
// exposure handed out before a reset is still calibrated correctly
// after it, like its coadd and its sources.
func TestLineageIsByIdentity(t *testing.T) {
	w := unseenWorkload(t, 1)
	obj, err := w.Store.Get(w.Store.List("astro/fits/")[0])
	if err != nil {
		t.Fatal(err)
	}
	held, err := fits.DecodeStaged(obj)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := fits.DecodeStaged(obj); again != held {
		t.Fatalf("the second decode is %p, the first %p", again, held)
	}
	cal := PreprocessMemo(held)
	if want := Preprocess(held); !sameExposure(cal, want) {
		t.Fatal("the memoized calibration differs from Preprocess")
	}

	changed := held.Clone()
	changed.Flux.Pix[len(changed.Flux.Pix)/2] += 1000
	if got, want := PreprocessMemo(changed), Preprocess(changed); got == cal || !sameExposure(got, want) {
		t.Error("a changed clone was answered with the original's calibration")
	}
	before := memo.Snapshot()
	if got := PreprocessMemo(held.Clone()); got == cal || !sameExposure(got, cal) {
		t.Error("an unchanged clone: want the same bits under a content key of its own")
	}
	if _, calibrate, _, _ := misses(before); calibrate != 1 {
		t.Errorf("an unchanged clone computed %d calibrations, want 1: lineage and content are different keys", calibrate)
	}

	stack := []*skymap.PatchExposure{w.Grid().Project(cal, w.Grid().ExposureOverlaps(cal)[0])}
	co, err := skymap.CoaddPatchMemo(stack, ClipSigma, ClipIters)
	if err != nil {
		t.Fatal(err)
	}
	found := DetectMemo(co)
	forceReset(t)
	if got := PreprocessMemo(held); got == cal || !sameExposure(got, cal) {
		t.Error("an exposure handed out before the reset: want a new, equal calibration")
	}
	co2, err := skymap.CoaddPatchMemo(stack, ClipSigma, ClipIters)
	if err != nil || co2 == co || !sameBits(co2.Flux.Pix, co.Flux.Pix) || !sameBits(co2.NVisits.Pix, co.NVisits.Pix) {
		t.Errorf("the stack after the reset: %p (%v), before %p", co2, err, co)
	}
	if got := DetectMemo(co); !reflect.DeepEqual(got, found) || !reflect.DeepEqual(got, Detect(co)) {
		t.Errorf("a coadd handed out before the reset detects %v, before %v", got, found)
	}
}

// A corrupt object fails on every call, through the memo as through
// the decoder, and is never kept; an inconsistent stack likewise.
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
	if decode, _, _, _ := misses(before); decode != 3 || memo.Snapshot().Bytes != before.Bytes {
		t.Errorf("three failed decodes: %d computed, table bytes %d → %d", decode, before.Bytes, memo.Snapshot().Bytes)
	}
	// The engines drop what they cannot decode, as they did.
	w.Store = st
	if res, err := RunSpark(w, testCluster(), nil, SparkOpts{}); err != nil || len(res.Patches) != 0 {
		t.Errorf("Spark over one corrupt object: %v, %v", res, err)
	}

	g := skymap.Grid{PatchW: 4, PatchH: 4}
	mixed := []*skymap.PatchExposure{skymap.NewPatchExposure(g, skymap.Patch{}, 0), skymap.NewPatchExposure(g, skymap.Patch{PX: 1}, 1)}
	for round := 0; round < 2; round++ {
		if co, err := skymap.CoaddPatchMemo(mixed, ClipSigma, ClipIters); co != nil || err == nil {
			t.Fatalf("round %d: an inconsistent stack co-added to %v, %v", round, co, err)
		}
	}
	if co, err := skymap.CoaddPatchMemo(nil, ClipSigma, ClipIters); co != nil || err == nil {
		t.Errorf("an empty stack co-added to %v, %v", co, err)
	}
}

// Detection through the memo is Detect, whether the coadd came out of
// the table or was built by hand.
func TestDetectMemoMatchesDetect(t *testing.T) {
	w := unseenWorkload(t, 3)
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range ref.Patches {
		for round := 0; round < 2; round++ {
			if got := DetectMemo(pr.Coadd); !reflect.DeepEqual(got, pr.Sources) {
				t.Errorf("%v round %d: %d sources through the memo, %d from Detect", p, round, len(got), len(pr.Sources))
			}
		}
	}
	flat := &skymap.Coadd{Flux: imaging.NewImage(40, 40), NVisits: imaging.NewImage(40, 40)}
	if got := DetectMemo(flat); len(got) != 0 {
		t.Errorf("a flat coadd has %d sources", len(got))
	}
}

func sameCoadd(a, b *skymap.Coadd) bool {
	return a.Patch == b.Patch && sameBits(a.Flux.Pix, b.Flux.Pix) && sameBits(a.NVisits.Pix, b.NVisits.Pix)
}

// stackOn projects each exposure that touches p with piece and
// assembles the pieces into one per visit, in visit order.
func stackOn(t *testing.T, g skymap.Grid, es []*skymap.Exposure, p skymap.Patch, piece func(*skymap.Exposure, skymap.Patch) *skymap.PatchExposure) []*skymap.PatchExposure {
	t.Helper()
	var pieces []*skymap.PatchExposure
	for _, e := range es {
		if slices.Contains(g.ExposureOverlaps(e), p) {
			pieces = append(pieces, piece(e, p))
		}
	}
	sortPatchExposures(pieces)
	stack, err := skymap.AssemblePatches(pieces)
	if err != nil {
		t.Fatal(err)
	}
	return stack
}

// A coadd of deferred pieces is keyed by the lineage of the calibrated
// exposures they came from: found again without a pixel read or a piece
// built, equal to CoaddPatch over projected pieces, never the answer
// for a clone one ulp apart, and still right, under a content key, for
// exposures handed out before a reset.
func TestDeferredCoaddIsKeyedByLineage(t *testing.T) {
	w := unseenWorkload(t, 3)
	g := w.Grid()
	var cals []*skymap.Exposure
	for _, key := range w.Store.List("astro/fits/") {
		obj, _ := w.Store.Get(key)
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			t.Fatal(err)
		}
		cals = append(cals, PreprocessMemo(e))
	}
	touching := map[skymap.Patch]int{}
	var p skymap.Patch
	for _, e := range cals {
		for _, q := range g.ExposureOverlaps(e) {
			if touching[q]++; touching[q] > touching[p] {
				p = q
			}
		}
	}
	check := func(name string, es []*skymap.Exposure) (*skymap.Coadd, []*skymap.PatchExposure) {
		t.Helper()
		stack := stackOn(t, g, es, p, g.Defer)
		got, err := skymap.CoaddPatchMemo(stack, ClipSigma, ClipIters)
		if err != nil {
			t.Fatal(err)
		}
		want, err := skymap.CoaddPatch(stackOn(t, g, es, p, g.Project), ClipSigma, ClipIters)
		if err != nil || !sameCoadd(got, want) {
			t.Errorf("%s: the deferred stack's coadd differs from CoaddPatch over projected pieces (%v)", name, err)
		}
		return got, stack
	}
	census := func(before memo.Stats) [3]uint64 {
		now := memo.Snapshot()
		return [3]uint64{now.LineageKeys - before.LineageKeys, now.ContentFallbacks - before.ContentFallbacks,
			now.Kinds[memo.Coadd].Misses - before.Kinds[memo.Coadd].Misses}
	}

	co, stack := check("cold", cals)
	sources := 0
	before := memo.Snapshot()
	again, warm := check("warm", cals)
	for _, pe := range warm {
		sources += len(slices.DeleteFunc(slices.Clone(cals), func(e *skymap.Exposure) bool {
			return e.Visit != pe.Visit || !slices.Contains(g.ExposureOverlaps(e), p)
		}))
		if pe.Flux != nil {
			t.Errorf("visit %d: a coadd the memo held built the piece's planes", pe.Visit)
		}
	}
	if got, want := census(before), [3]uint64{uint64(sources), 0, 0}; again != co || got != want {
		t.Errorf("warm: %p, the cold coadd %p; lineage keys, content fallbacks, coadds computed %v, want %v", again, co, got, want)
	}
	if len(stack) < 2 || sources <= len(stack) {
		t.Fatalf("a stack of %d pieces from %d exposures: the test wants several visits and merges", len(stack), sources)
	}

	// A clone one ulp apart, on a valid pixel inside p, is another input.
	i := slices.IndexFunc(cals, func(e *skymap.Exposure) bool { return slices.Contains(g.ExposureOverlaps(e), p) })
	clone := cals[i].Clone()
	x, y := max(p.PX*g.PatchW-clone.X0, 0), max(p.PY*g.PatchH-clone.Y0, 0)
	j := y*clone.Flux.W + x
	clone.Mask[j] &^= skymap.MaskBad
	clone.Flux.Pix[j] = math.Nextafter(clone.Flux.Pix[j], math.Inf(1))
	if got, _ := check("one-ulp clone", slices.Replace(slices.Clone(cals), i, i+1, clone)); got == co {
		t.Error("a clone one ulp apart was answered with the original's coadd")
	}

	forceReset(t)
	before = memo.Snapshot()
	if got, _ := check("after a reset", cals); got == co {
		t.Error("exposures handed out before the reset: want a new, equal coadd")
	}
	if got, want := census(before), [3]uint64{0, uint64(sources), 1}; got != want {
		t.Errorf("after a reset: lineage keys, content fallbacks, coadds computed %v, want %v", got, want)
	}
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
	got, err := RunMyria(w, testCluster(), nil, MyriaOpts{Mode: myria.MultiQuery, ChunkVisits: 25})
	if err != nil {
		t.Fatal(err)
	}
	wantBitEqual(t, "RunMyria at 101 visits", got, ref)
}

// The Fig 12d Spark and Myria step runners time Step 3A and compute
// none of it: nothing reads what a runner's UDF returns, so both over
// fresh stacks move no coadd hit or miss.
func TestCoaddStepRunnersComputeNothing(t *testing.T) {
	w := unseenWorkload(t, 4)
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(*Workload, *cluster.Cluster, *cost.Model, []*skymap.PatchExposure) (vtime.Duration, error)
	}{{"Spark", SparkCoadd}, {"Myria", MyriaCoadd}}
	before := memo.Snapshot().Kinds[memo.Coadd]
	for _, r := range runners {
		if d, err := r.run(w, testCluster(), nil, stacks); err != nil || d <= 0 {
			t.Fatalf("%s: %v after %v", r.name, err, d)
		}
	}
	if after := memo.Snapshot().Kinds[memo.Coadd]; after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("the co-addition step runners moved coadd: %d hits and %d misses before, %d and %d after",
			before.Hits, before.Misses, after.Hits, after.Misses)
	}
}
