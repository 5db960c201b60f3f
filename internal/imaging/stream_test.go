package imaging

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"imagebench/internal/volume"
)

func streamTestVolume(seed int64, nx, ny, nz int) *volume.V3 {
	rng := rand.New(rand.NewSource(seed))
	v := volume.New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	return v
}

// TestNLMeans3StreamBitIdentical pins the streaming denoise to the
// materialized kernel voxel for voxel, across worker counts including
// more workers than tiles, and with buffers recycled through a shared
// arena between runs (Release-then-reuse).
func TestNLMeans3StreamBitIdentical(t *testing.T) {
	v := streamTestVolume(41, 9, 8, 10)
	mask := volume.New3(v.NX, v.NY, v.NZ)
	for i := range mask.Data {
		if i%4 != 0 {
			mask.Data[i] = 1
		}
	}
	opts := NLMeansOpts{PatchRadius: 1, SearchRadius: 2}
	want := NLMeans3(v, mask, opts)
	ar := volume.NewArena() // shared across subtests: later runs get dirty buffers
	for _, workers := range []int{1, 4, v.NZ + 6} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts
			o.Workers = workers
			s := NLMeans3Stream(context.Background(), v, mask, o, ar, 1)
			got := volume.Collect(v.NX, v.NY, v.NZ, s)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("voxel %d = %v, want %v (stream must be bit-identical)", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
	st := ar.Stats()
	if st.Puts != st.Gets {
		t.Fatalf("stream leaked arena buffers: gets=%d puts=%d", st.Gets, st.Puts)
	}
}

// TestStreamsShareScratchConcurrently is the satellite aliasing stress
// (run under -race in CI): several full streaming pipelines recycle
// blocks through the process-wide volume.Scratch arena at once, each
// with a distinct input, and every one must still produce exactly its
// own sequential result — no pipeline may ever observe another's
// scratch data.
func TestStreamsShareScratchConcurrently(t *testing.T) {
	opts := NLMeansOpts{PatchRadius: 1, SearchRadius: 1}
	const pipelines = 6
	inputs := make([]*volume.V3, pipelines)
	wants := make([]*volume.V3, pipelines)
	for p := range inputs {
		inputs[p] = streamTestVolume(int64(100+p), 7, 6, 8)
		wants[p] = NLMeans3(inputs[p], nil, opts)
	}
	var wg sync.WaitGroup
	errs := make([]error, pipelines)
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			o := opts
			o.Workers = 1 + p%3
			v := inputs[p]
			s := NLMeans3Stream(context.Background(), v, nil, o, volume.Scratch, 1)
			got := volume.Collect(v.NX, v.NY, v.NZ, s)
			for i := range got.Data {
				if got.Data[i] != wants[p].Data[i] {
					errs[p] = fmt.Errorf("pipeline %d voxel %d = %v, want %v (cross-pipeline scratch contamination)",
						p, i, got.Data[i], wants[p].Data[i])
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
