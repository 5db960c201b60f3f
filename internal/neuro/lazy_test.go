package neuro

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/lazy"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// One lazy chain, decode → mask → denoise → slab → fit, forced from
// eight goroutines at once, computes each of its values once and gives
// every goroutine the eager pure names' bits.
func TestLazyChainForcesOnceUnderConcurrency(t *testing.T) {
	cfg := synth.DefaultNeuro(1)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 8, 2
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := volume.Blocks(cfg.NZ, 4)[1]
	before := lazy.Computed()

	dec := make([]*lazyVol, cfg.T)
	for i := range dec {
		obj, err := w.Store.Get(synth.NeuroKeyNPY(0, i))
		if err != nil {
			t.Fatal(err)
		}
		dec[i] = lazy.Of(func() (*volume.V3, error) { return decodeNPY(obj) })
	}
	mask := segmentFromMean(meanOnRead(dec[:cfg.B0]))
	slabs := make([]slab, cfg.T)
	for i, v := range dec {
		slabs[i] = blockOnRead(denoiseOnRead(v, mask), b)
	}
	fa, err := fitOnRead(w.Grad, slabs, blockOnRead(mask, b))
	if err != nil {
		t.Fatal(err)
	}

	got := make([]*volume.V3, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[g], err = fa.Force(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// T decodes, the mean, the mask, T denoised volumes and the fit.
	if n, want := lazy.Computed()-before, uint64(2*cfg.T+3); n != want {
		t.Errorf("the chain computed %d values, want %d", n, want)
	}

	vols := make([]*volume.V3, cfg.T)
	for i := range vols {
		obj, _ := w.Store.Get(synth.NeuroKeyNPY(0, i))
		if vols[i], err = decodeNPY(obj); err != nil {
			t.Fatal(err)
		}
	}
	m := Segment(vols[:cfg.B0])
	pure := make([]*volume.V3, cfg.T)
	for i, v := range vols {
		pure[i] = volume.ExtractBlock(imaging.NLMeans3(v, m, DenoiseOpts), b)
	}
	want, err := dmri.FitFA(w.Grad, volume.New4(pure), volume.ExtractBlock(m, b))
	if err != nil {
		t.Fatal(err)
	}
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("goroutine %d got another value than goroutine 0", g)
		}
	}
	for i, x := range want.Data {
		if math.Float64bits(got[0].Data[i]) != math.Float64bits(x) {
			t.Fatalf("voxel %d: %v forced, %v from the pure names", i, got[0].Data[i], x)
		}
	}
}

// The Fig 12b and 12c step runners time the mean and the denoise and
// compute neither: nothing reads what a runner's UDF returns, so every
// engine's runners over a fresh workload of the quick profile's
// geometry compute no lazy value. That no UDF runs a kernel eagerly,
// suite.TestKernelsRunOnRead holds.
func TestStepRunnersComputeNothing(t *testing.T) {
	cfg := synth.DefaultNeuro(2)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 48, 3
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(*Workload, *cluster.Cluster, *cost.Model, string) (vtime.Duration, error)
	}{{"Spark", SparkStep}, {"Myria", MyriaStep}, {"Dask", DaskStep}, {"SciDB", SciDBStep}, {"TensorFlow", TFStep}}
	before := lazy.Computed()
	for _, r := range runners {
		for _, step := range []string{"mean", "denoise"} {
			if _, err := r.run(w, testCluster(), cost.Default(), step); err != nil {
				t.Fatalf("%s %s: %v", r.name, step, err)
			}
		}
	}
	if n := lazy.Computed() - before; n != 0 {
		t.Errorf("the step runners computed %d lazy values", n)
	}
}

// fitOnRead forces the mask inside the fit instead of copying the
// slabs to append it, so what it allocates does not grow with the
// slabs: the same bytes for 4 slabs as for 64. TotalAlloc counts the
// whole process, and other goroutines only ever add to it, so each
// slab count keeps the least of five measurements.
func TestFitOnReadAllocsConstantInSlabs(t *testing.T) {
	s := blockOnRead(held(volume.New3(1, 1, 1)), volume.Block{Z0: 0, Z1: 1})
	bytesPerFit := func(n int) uint64 {
		slabs := make([]slab, n)
		for i := range slabs {
			slabs[i] = s
		}
		const runs = 100
		least := uint64(math.MaxUint64)
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				fitOnRead(nil, slabs, s)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/runs)
		}
		return least
	}
	if small, large := bytesPerFit(4), bytesPerFit(64); small != large {
		t.Errorf("fitOnRead allocates %d bytes for 4 slabs, %d for 64", small, large)
	}
}
