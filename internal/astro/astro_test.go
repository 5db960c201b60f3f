package astro

import (
	"fmt"
	"math"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/imaging"
	"imagebench/internal/myria"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.WorkersPerNode = 4
	return cluster.New(cfg)
}

func smallWorkload(t testing.TB, visits int) *Workload {
	t.Helper()
	cfg := synth.DefaultAstro(visits)
	cfg.Sensors, cfg.W, cfg.H, cfg.Sources = 4, 32, 32, 10
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatalf("NewWorkloadCfg: %v", err)
	}
	return w
}

func TestReferenceDetectsTrueSources(t *testing.T) {
	w := smallWorkload(t, 6)
	res, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if len(res.Patches) == 0 {
		t.Fatal("no patches produced")
	}
	// Every detected source should be near a true source, and most true
	// sources should be recovered (they are bright against the noise).
	g := w.Grid()
	matched := 0
	for _, src := range w.Truth {
		found := false
		for _, pr := range res.Patches {
			baseX := float64(pr.Patch.PX * g.PatchW)
			baseY := float64(pr.Patch.PY * g.PatchH)
			for _, d := range pr.Sources {
				dx := baseX + d.X - src.X
				dy := baseY + d.Y - src.Y
				if math.Hypot(dx, dy) < 2.5 {
					found = true
				}
			}
		}
		if found {
			matched++
		}
	}
	if frac := float64(matched) / float64(len(w.Truth)); frac < 0.7 {
		t.Errorf("recovered %d/%d true sources (%.0f%%), want >= 70%%", matched, len(w.Truth), frac*100)
	}
}

func coaddsEqual(t *testing.T, name string, got, want *skymap.Coadd) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing coadd for %v", name, want.Patch)
	}
	var maxd float64
	for i := range want.Flux.Pix {
		d := math.Abs(got.Flux.Pix[i] - want.Flux.Pix[i])
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Errorf("%s: coadd %v flux differs by %g", name, want.Patch, maxd)
	}
}

func resultsMatch(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Patches) != len(want.Patches) {
		t.Fatalf("%s: got %d patches, want %d", name, len(got.Patches), len(want.Patches))
	}
	for p, wp := range want.Patches {
		gp, ok := got.Patches[p]
		if !ok {
			t.Fatalf("%s: missing patch %v", name, p)
		}
		coaddsEqual(t, name, gp.Coadd, wp.Coadd)
		if len(gp.Sources) != len(wp.Sources) {
			t.Errorf("%s: patch %v has %d sources, want %d", name, p, len(gp.Sources), len(wp.Sources))
		}
	}
}

func TestSparkMatchesReference(t *testing.T) {
	w := smallWorkload(t, 4)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8})
	if err != nil {
		t.Fatalf("RunSpark: %v", err)
	}
	resultsMatch(t, "spark", got, ref)
}

func TestMyriaMatchesReference(t *testing.T) {
	w := smallWorkload(t, 4)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := RunMyria(w, testCluster(), nil, MyriaOpts{})
	if err != nil {
		t.Fatalf("RunMyria: %v", err)
	}
	resultsMatch(t, "myria", got, ref)
}

func TestDaskMatchesReference(t *testing.T) {
	w := smallWorkload(t, 4)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := RunDask(w, testCluster(), nil)
	if err != nil {
		t.Fatalf("RunDask: %v", err)
	}
	resultsMatch(t, "dask", got, ref)
}

func TestSciDBCoaddMatchesReference(t *testing.T) {
	w := smallWorkload(t, 4)
	// Build the patch stacks with the reference Steps 1A+2A.
	exposures, err := LoadExposures(w.Store)
	if err != nil {
		t.Fatalf("LoadExposures: %v", err)
	}
	for i, e := range exposures {
		exposures[i] = Preprocess(e)
	}
	pes, err := CreatePatches(w.Grid(), exposures)
	if err != nil {
		t.Fatalf("CreatePatches: %v", err)
	}
	want, err := CoaddAll(pes)
	if err != nil {
		t.Fatalf("CoaddAll: %v", err)
	}
	got, err := RunSciDBCoadd(w, testCluster(), nil, pes, SciDBOpts{})
	if err != nil {
		t.Fatalf("RunSciDBCoadd: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d coadds, want %d", len(got), len(want))
	}
	for p, co := range want {
		coaddsEqual(t, "scidb", got[p], co)
	}
}

func TestMyriaMultiQueryMatches(t *testing.T) {
	w := smallWorkload(t, 4)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := RunMyria(w, testCluster(), nil, MyriaOpts{Mode: myria.MultiQuery, ChunkVisits: 2})
	if err != nil {
		t.Fatalf("RunMyria multi-query: %v", err)
	}
	resultsMatch(t, "myria-multiquery", got, ref)
}

func TestPreprocessRemovesCosmicRays(t *testing.T) {
	w := smallWorkload(t, 1)
	exposures, err := LoadExposures(w.Store)
	if err != nil {
		t.Fatalf("LoadExposures: %v", err)
	}
	e := exposures[0]
	cal := Preprocess(e)
	repaired := 0
	for _, m := range cal.Mask {
		if m&skymap.MaskCosmicRay != 0 {
			repaired++
		}
	}
	if repaired == 0 {
		t.Error("no cosmic rays repaired; the synthetic data injects ~0.2%")
	}
	// Background subtraction should drop the sky level to ~0.
	m, _ := imaging.SigmaClippedStats(cal.Flux.Pix, 3, 3)
	if math.Abs(m) > 5 {
		t.Errorf("background-subtracted sky mean %.2f, want ~0", m)
	}
}

// BenchmarkPreprocess is Step 1A over the exposures of a small workload;
// run with -benchmem it gives the bytes one calibrated exposure costs.
func BenchmarkPreprocess(b *testing.B) {
	exposures, err := LoadExposures(smallWorkload(b, 2).Store)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Preprocess(exposures[i%len(exposures)])
	}
}

// PatchKey and VisitPatchKey spell patches as fmt's p%d_%d and
// p%d_%d/v%02d did, for negative patches too, and ParsePatchKey reads
// the patch back from either.
func TestPatchKeysRoundTrip(t *testing.T) {
	for id := -1200; id <= 1200; id++ {
		for _, p := range []skymap.Patch{{PX: id, PY: 3}, {PX: -2, PY: id}} {
			visit := max(id, 0)
			key, vkey := PatchKey(p), VisitPatchKey(p, visit)
			if want := fmt.Sprintf("p%d_%d", p.PX, p.PY); key != want || vkey != fmt.Sprintf("%s/v%02d", want, visit) {
				t.Fatalf("%v: keys %q and %q, fmt spells %q and %q", p, key, vkey, want, fmt.Sprintf("%s/v%02d", want, visit))
			}
			for _, k := range []string{key, vkey} {
				if got, err := ParsePatchKey(k); err != nil || got != p {
					t.Fatalf("ParsePatchKey(%q) = %v, %v", k, got, err)
				}
			}
		}
	}
	if _, err := ParsePatchKey("p1_2x"); err == nil {
		t.Error("ParsePatchKey accepted trailing bytes")
	}
}
