package imaging

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"imagebench/internal/fan"
	"imagebench/internal/volume"
)

// TestParallelKernelStress hammers the tiled kernels with many
// concurrent invocations, whose helpers share the process's spare
// cores, and asserts (run under -race in CI) that every call returns
// exactly the sequential result, no matter how many sibling
// invocations were running.
func TestParallelKernelStress(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	v := volume.New3(12, 11, 10)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	mask := volume.New3(v.NX, v.NY, v.NZ)
	for i := range mask.Data {
		if i%3 != 0 {
			mask.Data[i] = 1
		}
	}
	opts := NLMeansOpts{PatchRadius: 1, SearchRadius: 2}
	wantNLM := naiveNLMeans3(v, mask, opts)
	k := GaussianKernel(0.8)
	wantConv := naiveSeparableConv3(v, k, k, k)

	const goroutines = 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, want := SeparableConv3(v, k, k, k), wantConv
			if g%3 != 0 {
				o := opts
				o.Workers = g % 5
				got, want = NLMeans3(v, mask, o), wantNLM
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Errorf("goroutine %d: voxel %d = %v, want %v (must be bit-identical)",
						g, i, got.Data[i], want.Data[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	// The shared input must be untouched by any invocation: kernels only
	// ever read it.
	check := volume.New3(v.NX, v.NY, v.NZ)
	rng2 := rand.New(rand.NewSource(31))
	for i := range check.Data {
		check.Data[i] = 100 + 10*rng2.NormFloat64()
	}
	for i := range v.Data {
		if v.Data[i] != check.Data[i] {
			t.Fatalf("input voxel %d mutated by a kernel invocation", i)
		}
	}
}

// A top-level kernel call, which no caller counts, runs its tiles on
// its own goroutine and at most one helper per P.
func TestTopLevelKernelStaysWithinGOMAXPROCSPlusOne(t *testing.T) {
	v := streamTestVolume(5, 8, 7, 32)
	want := NLMeans3(v, nil, NLMeansOpts{Workers: 1})
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		before := fan.Helpers()
		got := NLMeans3(v, nil, NLMeansOpts{})
		started := fan.Helpers() - before
		runtime.GOMAXPROCS(prev)
		if started < 1 || started > int64(procs) {
			t.Errorf("GOMAXPROCS %d: %d helpers started, want 1 to %d", procs, started, procs)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("GOMAXPROCS %d: voxel %d = %v, want %v (must be bit-identical)", procs, i, got.Data[i], want.Data[i])
			}
		}
		if b := fan.Busy(); b != 0 {
			t.Fatalf("fan.Busy() = %d after the call returned, want 0", b)
		}
	}
}

// A panic in a tile reaches the kernel's caller, whichever goroutine
// ran the tile: here every plane past the first reads a mask plane that
// is not there.
func TestTilePanicReachesTheCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	v := streamTestVolume(6, 6, 5, 16)
	short := volume.New3(v.NX, v.NY, 1)
	for i := range short.Data {
		short.Data[i] = 1
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "index out of range") {
			t.Fatalf("recovered %v, want the tile's index-out-of-range panic", r)
		}
		if b := fan.Busy(); b != 0 {
			t.Fatalf("fan.Busy() = %d after the panic, want 0", b)
		}
	}()
	NLMeans3(v, short, NLMeansOpts{})
	t.Fatal("NLMeans3 returned")
}
