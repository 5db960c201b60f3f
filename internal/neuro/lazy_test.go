package neuro

import (
	"math"
	"sync"
	"testing"

	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/lazy"
	"imagebench/internal/memo"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// One lazy chain, decode → mask → denoise → slab → fit, forced from
// eight goroutines at once, computes each kernel input once (one memo
// miss each, no hit: the waiting is the chain's, not the memo's) and
// gives every goroutine the eager pure names' bits.
func TestLazyChainForcesOnceUnderConcurrency(t *testing.T) {
	cfg := synth.DefaultNeuro(1)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 8, 2
	cfg.Seed = unseenSeed()
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := volume.Blocks(cfg.NZ, 4)[1]
	before := memo.Snapshot()

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

	// Each input is looked up once. All are new but the mask's slab: the
	// phantom's mask may come out of another seed the same.
	after := memo.Snapshot()
	for k, want := range map[memo.Kind]uint64{memo.Load: uint64(cfg.T), memo.Mask: 1, memo.NLMeans: uint64(cfg.T), memo.Slab: uint64(cfg.T) + 1, memo.Fit: 1} {
		hits, misses := after.Kinds[k].Hits-before.Kinds[k].Hits, after.Kinds[k].Misses-before.Kinds[k].Misses
		if hits+misses != want || hits > 0 && (k != memo.Slab || hits > 1) {
			t.Errorf("%s: %d hits and %d misses, want %d misses (one slab may hit)", k, hits, misses, want)
		}
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
