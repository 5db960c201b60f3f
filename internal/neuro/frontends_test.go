package neuro

import (
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/imaging"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

func frontendCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	return cluster.New(cfg)
}

// TestRunSciDBAFLMatchesReference validates that Step 1N expressed as an
// AFL program produces the reference masks for every subject.
func TestRunSciDBAFLMatchesReference(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	masks, err := RunSciDBAFL(w, frontendCluster(), cost.Default(), SciDBAio)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 2 {
		t.Fatalf("got %d masks, want 2", len(masks))
	}
	for s, mask := range masks {
		want := ref.Subjects[s].Mask
		if d := volume.MaxAbsDiff(mask, want); d != 0 {
			t.Errorf("subject %d: AFL mask differs from reference by %g", s, d)
		}
	}
}

// TestRunSciDBAFLMatchesNativePath validates the AFL program against the
// direct engine-API implementation (RunSciDB): same masks, either path.
func TestRunSciDBAFLMatchesNativePath(t *testing.T) {
	w, err := NewWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	aflMasks, err := RunSciDBAFL(w, frontendCluster(), cost.Default(), SciDBAio)
	if err != nil {
		t.Fatal(err)
	}
	native, err := force(RunSciDB(w, frontendCluster(), nil, SciDBAio))
	if err != nil {
		t.Fatal(err)
	}
	for s, m := range aflMasks {
		if d := volume.MaxAbsDiff(m, native.Masks[s]); d != 0 {
			t.Errorf("subject %d: AFL vs native mask differ by %g", s, d)
		}
	}
}

// TestRunMyriaLMatchesReference validates the two-query MyriaL program
// (mask, then Figure 7's join + denoise) against the reference pipeline.
func TestRunMyriaLMatchesReference(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMyriaL(w, frontendCluster(), cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Masks) != 2 {
		t.Fatalf("got %d masks, want 2", len(res.Masks))
	}
	for s, m := range res.Masks {
		if d := volume.MaxAbsDiff(m, ref.Subjects[s].Mask); d != 0 {
			t.Errorf("subject %d: MyriaL mask differs from reference by %g", s, d)
		}
	}
	if want := 2 * w.Cfg.T; len(res.Denoised) != want {
		t.Fatalf("got %d denoised volumes, want %d", len(res.Denoised), want)
	}
	// Spot-check denoised volumes against direct denoising with the
	// reference mask.
	for s := 0; s < 2; s++ {
		for _, tvol := range []int{0, w.Cfg.T - 1} {
			key := VolKey(s, tvol)
			got := res.Denoised[key]
			if got == nil {
				t.Fatalf("missing denoised volume %s", key)
			}
			orig, err := loadVolume(w, s, tvol)
			if err != nil {
				t.Fatal(err)
			}
			want := Denoise(orig, ref.Subjects[s].Mask)
			if d := volume.MaxAbsDiff(got, want); d != 0 {
				t.Errorf("%s: MyriaL denoise differs by %g", key, d)
			}
		}
	}
}

// loadVolume fetches one staged volume from the store.
func loadVolume(w *Workload, subj, vol int) (*volume.V3, error) {
	obj, err := w.Store.Get(synth.NeuroKeyNPY(subj, vol))
	if err != nil {
		return nil, err
	}
	return decodeNPY(obj)
}

// TestMyriaLAdvancesVirtualTime sanity-checks that the frontend charges
// cluster time (queries are not free).
func TestMyriaLAdvancesVirtualTime(t *testing.T) {
	w, err := NewWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cl := frontendCluster()
	if _, err := RunMyriaL(w, cl, cost.Default()); err != nil {
		t.Fatal(err)
	}
	if cl.Makespan() <= 0 {
		t.Error("MyriaL run charged no virtual time")
	}
	if cl.Tasks() < 10 {
		t.Errorf("MyriaL run scheduled only %d tasks", cl.Tasks())
	}
}

// TestRunTFConvDenoise exercises the paper's convolutional rewrite of
// Step 2N: the denoised volumes equal a direct Gaussian smoothing.
func TestRunTFConvDenoise(t *testing.T) {
	w, err := NewWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := force(RunTF(w, frontendCluster(), nil, TFOpts{ConvDenoise: true, ConvSigma: 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Denoised) != w.Cfg.T {
		t.Fatalf("got %d denoised volumes, want %d", len(res.Denoised), w.Cfg.T)
	}
	orig, err := loadVolume(w, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.GaussianSmooth3(orig, 0.8)
	got := res.Denoised[VolKey(0, 0)]
	if d := volume.MaxAbsDiff(got, want); d != 0 {
		t.Errorf("conv denoise differs from direct smoothing by %g", d)
	}
	// The conv rewrite is cruder than NL-means: it must differ from the
	// reference denoiser (it is an approximation, not a reimplementation).
	nl := Denoise(orig, nil)
	if volume.MaxAbsDiff(got, nl) == 0 {
		t.Error("conv denoise unexpectedly identical to non-local means")
	}
}
