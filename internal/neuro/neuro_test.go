package neuro

import (
	"math"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/lazy"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.WorkersPerNode = 4
	return cluster.New(cfg)
}

func smallWorkload(t *testing.T, subjects int) *Workload {
	t.Helper()
	cfg := synth.DefaultNeuro(subjects)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 8, 2
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatalf("NewWorkloadCfg: %v", err)
	}
	return w
}

func TestReferencePipeline(t *testing.T) {
	w := smallWorkload(t, 2)
	res, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if len(res.Subjects) != 2 {
		t.Fatalf("got %d subjects, want 2", len(res.Subjects))
	}
	for s, sr := range res.Subjects {
		frac := float64(sr.Mask.Summarize().NonZero) / float64(sr.Mask.Len())
		if frac < 0.05 || frac > 0.8 {
			t.Errorf("subject %d: mask fraction %.2f outside plausible range", s, frac)
		}
		st := sr.FA.Summarize()
		if st.Max <= 0 || st.Max > 1 {
			t.Errorf("subject %d: FA max %.3f outside (0,1]", s, st.Max)
		}
		if st.Min < 0 {
			t.Errorf("subject %d: negative FA %.3f", s, st.Min)
		}
	}
}

func TestFAReflectsAnisotropy(t *testing.T) {
	// The synthetic phantom has an anisotropic band through the middle
	// (high FA) and isotropic brain elsewhere (low FA); the fitted FA map
	// must reflect that structure.
	w := smallWorkload(t, 1)
	res, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	fa := res.Subjects[0].FA
	cx, cy, cz := fa.NX/2, fa.NY/2, fa.NZ/2
	band := fa.At(cx, cy, cz)         // center of the anisotropic band
	iso := fa.At(cx, 1+fa.NY*3/4, cz) // isotropic region, still in brain
	if band < 0.4 {
		t.Errorf("band FA = %.3f, want >= 0.4", band)
	}
	if iso > band {
		t.Errorf("isotropic FA %.3f not below band FA %.3f", iso, band)
	}
}

func resultsEqual(t *testing.T, name string, got, want *Result, tol float64) {
	t.Helper()
	if len(got.Subjects) != len(want.Subjects) {
		t.Fatalf("%s: got %d subjects, want %d", name, len(got.Subjects), len(want.Subjects))
	}
	for s, ws := range want.Subjects {
		gs, ok := got.Subjects[s]
		if !ok {
			t.Fatalf("%s: missing subject %d", name, s)
		}
		if d := volume.MaxAbsDiff(gs.Mask, ws.Mask); d > 0 {
			t.Errorf("%s: subject %d mask differs by %g", name, s, d)
		}
		if d := volume.MaxAbsDiff(gs.FA, ws.FA); d > tol {
			t.Errorf("%s: subject %d FA differs by %g (tol %g)", name, s, d, tol)
		}
	}
}

// force reads an engine run's output.
func force[T any](out *lazy.Value[T], err error) (T, error) {
	if err != nil {
		var none T
		return none, err
	}
	return out.Force()
}

func TestSparkMatchesReference(t *testing.T) {
	w := smallWorkload(t, 2)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := force(RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8}))
	if err != nil {
		t.Fatalf("RunSpark: %v", err)
	}
	resultsEqual(t, "spark", got, ref, 1e-9)
}

func TestMyriaMatchesReference(t *testing.T) {
	w := smallWorkload(t, 2)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := force(RunMyria(w, testCluster(), nil, MyriaOpts{}))
	if err != nil {
		t.Fatalf("RunMyria: %v", err)
	}
	resultsEqual(t, "myria", got, ref, 1e-9)
}

func TestDaskMatchesReference(t *testing.T) {
	w := smallWorkload(t, 2)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := force(RunDask(w, testCluster(), nil))
	if err != nil {
		t.Fatalf("RunDask: %v", err)
	}
	resultsEqual(t, "dask", got, ref, 1e-9)
}

func TestSciDBProducesMasksAndDenoised(t *testing.T) {
	w := smallWorkload(t, 1)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	got, err := force(RunSciDB(w, testCluster(), nil, SciDBAio))
	if err != nil {
		t.Fatalf("RunSciDB: %v", err)
	}
	// The native Step 1N path computes the same mask as the reference.
	if d := volume.MaxAbsDiff(got.Masks[0], ref.Subjects[0].Mask); d > 0 {
		t.Errorf("scidb mask differs by %g", d)
	}
	// stream() denoising is unmasked: same shape, every voxel processed.
	if len(got.Denoised) != w.Cfg.T {
		t.Fatalf("got %d denoised volumes, want %d", len(got.Denoised), w.Cfg.T)
	}
	for k, v := range got.Denoised {
		if v.NX != w.Cfg.NX || v.NY != w.Cfg.NY || v.NZ != w.Cfg.NZ {
			t.Errorf("denoised %s has wrong shape", k)
		}
	}
	// The TSV crossing is exact, so TensorFlow's unmasked Step 2N gives
	// the same bits.
	tf, err := force(RunTF(w, testCluster(), nil, TFOpts{}))
	if err != nil {
		t.Fatalf("RunTF: %v", err)
	}
	for k, v := range got.Denoised {
		if u, ok := tf.Denoised[k]; !ok || volume.MaxAbsDiff(v, u) != 0 {
			t.Errorf("%s: SciDB and TensorFlow denoised volumes differ", k)
		}
	}
}

func TestTFProducesMasksAndDenoised(t *testing.T) {
	w := smallWorkload(t, 2)
	got, err := force(RunTF(w, testCluster(), nil, TFOpts{}))
	if err != nil {
		t.Fatalf("RunTF: %v", err)
	}
	if len(got.Masks) != 2 {
		t.Fatalf("got %d masks, want 2", len(got.Masks))
	}
	for s, m := range got.Masks {
		frac := float64(m.Summarize().NonZero) / float64(m.Len())
		if frac <= 0 || frac >= 1 {
			t.Errorf("subject %d: simplified mask fraction %.2f degenerate", s, frac)
		}
	}
	if len(got.Denoised) != 2*w.Cfg.T {
		t.Fatalf("got %d denoised volumes, want %d", len(got.Denoised), 2*w.Cfg.T)
	}
}

func TestDenoiseReducesNoise(t *testing.T) {
	// Use a larger phantom so the brain has a genuine interior: at tiny
	// sizes every masked voxel borders background, where non-local means
	// legitimately sharpens the edge instead of smoothing.
	cfg := synth.DefaultNeuro(1)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 16, 16, 16, 4, 2
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatalf("NewWorkloadCfg: %v", err)
	}
	obj, err := w.Store.Get(synth.NeuroKeyNIfTI(0))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	data, err := decodeNIfTI(obj)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b0 := data.Select(w.Grad.B0Mask(50))
	mask := Segment(b0.Vols)
	interior := erode(mask, 2)
	if interior.Summarize().NonZero == 0 {
		t.Fatal("eroded mask is empty; enlarge the phantom")
	}
	v := data.Vols[0]
	den := Denoise(v, mask)
	// Inside the brain interior, denoising must reduce local variance.
	varBefore := maskedLocalVariance(v, interior)
	varAfter := maskedLocalVariance(den, interior)
	if varAfter >= varBefore {
		t.Errorf("denoise did not reduce interior local variance: %.1f -> %.1f", varBefore, varAfter)
	}
}

// erode returns mask shrunk by r voxels: a voxel stays set only if its
// whole (2r+1)^3 neighbourhood is inside the mask and the volume.
func erode(mask *volume.V3, r int) *volume.V3 {
	out := volume.New3(mask.NX, mask.NY, mask.NZ)
	for z := 0; z < mask.NZ; z++ {
		for y := 0; y < mask.NY; y++ {
		next:
			for x := 0; x < mask.NX; x++ {
				for dz := -r; dz <= r; dz++ {
					for dy := -r; dy <= r; dy++ {
						for dx := -r; dx <= r; dx++ {
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || nx >= mask.NX || ny < 0 || ny >= mask.NY || nz < 0 || nz >= mask.NZ || mask.At(nx, ny, nz) == 0 {
								continue next
							}
						}
					}
				}
				out.Set(x, y, z, 1)
			}
		}
	}
	return out
}

// maskedLocalVariance measures the mean squared difference between
// neighbouring voxels inside the mask — a proxy for noise level.
func maskedLocalVariance(v, mask *volume.V3) float64 {
	var sum float64
	var n int
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 1; x < v.NX; x++ {
				if mask.At(x, y, z) == 0 || mask.At(x-1, y, z) == 0 {
					continue
				}
				d := v.At(x, y, z) - v.At(x-1, y, z)
				sum += d * d
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func TestWorkloadSizes(t *testing.T) {
	w := smallWorkload(t, 3)
	wantInput := 3 * w.Cfg.SubjectModelBytes()
	if got := w.InputModelBytes(); got != wantInput {
		t.Errorf("InputModelBytes = %d, want %d", got, wantInput)
	}
	if got := w.LargestIntermediateModelBytes(); got != 2*wantInput {
		t.Errorf("LargestIntermediateModelBytes = %d, want %d", got, 2*wantInput)
	}
}
