package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// memoSalt makes test content unique within the process, -count=N
// included: the table is process-wide and has no reset, so a test that
// must see a miss needs voxels nothing has sent through it before.
var memoSalt atomic.Int64

func unseen(v *volume.V3) *volume.V3 {
	v.Data[0] = 1e6 + float64(memoSalt.Add(1))
	return v
}

func nlmeansStats() memo.KindStats { return memo.Snapshot().Kinds[memo.NLMeans] }

// sameBits reports whether two volumes have the same shape and the same
// bit pattern in every voxel (so 0 ≠ -0 and NaN == the same NaN).
func sameBits(a, b *volume.V3) bool {
	if !a.SameShape(b) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func onesMask(v *volume.V3) *volume.V3 {
	m := volume.New3(v.NX, v.NY, v.NZ)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

func sparseMask(rng *rand.Rand, v *volume.V3, p float64) *volume.V3 {
	m := volume.New3(v.NX, v.NY, v.NZ)
	for i := range m.Data {
		if rng.Float64() < p {
			m.Data[i] = 1
		}
	}
	return m
}

// wantStats fails unless the memo's counters moved by exactly the given
// amounts since before.
func wantStats(t *testing.T, before memo.KindStats, hits, misses uint64) {
	t.Helper()
	s := nlmeansStats()
	if s.Hits-before.Hits != hits || s.Misses-before.Misses != misses {
		t.Fatalf("memo counted %d hits and %d misses, want %d and %d",
			s.Hits-before.Hits, s.Misses-before.Misses, hits, misses)
	}
}

// A miss and a hit both return exactly the pure kernel's bits, over
// random shapes, every kind of mask and explicit as well as derived H.
func TestMemoBitIdenticalOnMissAndHit(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 8; i++ {
		v := unseen(streamTestVolume(int64(100+i), 3+rng.Intn(6), 3+rng.Intn(6), 3+rng.Intn(6)))
		masks := map[string]*volume.V3{"nil": nil, "ones": onesMask(v), "sparse": sparseMask(rng, v, 0.3)}
		for name, mask := range masks {
			for _, h := range []float64{0, 4, 25} {
				opts := NLMeansOpts{PatchRadius: 1, SearchRadius: 2, H: h}
				want := NLMeans3(v, mask, opts)
				before := nlmeansStats()
				miss := NLMeans3Memo(v, mask, opts)
				wantStats(t, before, 0, 1)
				hit := NLMeans3Memo(v, mask, opts)
				wantStats(t, before, 1, 1)
				if !sameBits(miss, want) || !sameBits(hit, want) {
					t.Fatalf("%dx%dx%d mask=%s H=%g: memoized output differs from NLMeans3 (miss equal: %v, hit equal: %v)",
						v.NX, v.NY, v.NZ, name, h, sameBits(miss, want), sameBits(hit, want))
				}
				if &miss.Data[0] == &hit.Data[0] {
					t.Fatal("miss and hit returned the same buffer")
				}
			}
		}
	}
}

// What makes two calls the same entry: content and the options the
// output depends on, never the worker count.
func TestMemoKey(t *testing.T) {
	v := unseen(streamTestVolume(7, 4, 6, 5))
	opts := NLMeansOpts{PatchRadius: 1, SearchRadius: 2, H: 9}
	NLMeans3Memo(v, nil, opts)

	distinct := []struct {
		name string
		v, m *volume.V3
		o    NLMeansOpts
	}{
		{"same bytes, other shape", &volume.V3{NX: 6, NY: 4, NZ: 5, Data: v.Data}, nil, opts},
		{"all-ones mask instead of nil", v, onesMask(v), opts},
		{"other H", v, nil, NLMeansOpts{PatchRadius: 1, SearchRadius: 2, H: 9.5}},
		{"other search radius", v, nil, NLMeansOpts{PatchRadius: 1, SearchRadius: 1, H: 9}},
		{"one voxel's sign bit", func() *volume.V3 { c := v.Clone(); c.Data[3] = -c.Data[3]; return c }(), nil, opts},
	}
	for _, c := range distinct {
		before := nlmeansStats()
		got := NLMeans3Memo(c.v, c.m, c.o)
		wantStats(t, before, 0, 1)
		if !sameBits(got, NLMeans3(c.v, c.m, c.o)) {
			t.Errorf("%s: wrong output", c.name)
		}
	}

	before := nlmeansStats()
	for _, workers := range []int{1, 2, 0} {
		o := opts
		o.Workers = workers
		NLMeans3Memo(v.Clone(), nil, o)
	}
	// Zero radii mean the defaults, which are what opts spells out.
	NLMeans3Memo(v, nil, NLMeansOpts{H: 9})
	wantStats(t, before, 4, 0)
}

// The memo keeps its own buffers: nothing a caller does to what it
// passed in or got back can change a later answer.
func TestMemoOwnsItsCopies(t *testing.T) {
	before := nlmeansStats()
	orig := unseen(streamTestVolume(8, 6, 5, 7))
	mask := onesMask(orig)
	want := NLMeans3(orig, mask, NLMeansOpts{})

	in, inMask := orig.Clone(), mask.Clone()
	first := NLMeans3Memo(in, inMask, NLMeansOpts{})
	for i := range first.Data {
		first.Data[i], in.Data[i], inMask.Data[i] = -1, -2, 0
	}
	second := NLMeans3Memo(orig, mask, NLMeansOpts{})
	if !sameBits(second, want) {
		t.Fatal("scribbling on the first call's input and output changed the hit")
	}
	for i := range second.Data {
		second.Data[i] = -3
	}
	if third := NLMeans3Memo(orig, mask, NLMeansOpts{}); !sameBits(third, want) {
		t.Fatal("scribbling on a hit's output changed the next hit")
	}
	wantStats(t, before, 2, 1)
}

// 24 callers at once, over keys they share and keys of their own.
func TestMemoConcurrentCallers(t *testing.T) {
	before := nlmeansStats()
	const callers, rounds = 24, 6
	shared := make([]*volume.V3, 4)
	wantShared := make([]*volume.V3, len(shared))
	for i := range shared {
		shared[i] = unseen(streamTestVolume(int64(40+i), 6, 6, 6))
		wantShared[i] = NLMeans3(shared[i], nil, NLMeansOpts{})
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := unseen(streamTestVolume(int64(1000+c), 5, 6, 4))
			mask := onesMask(own)
			wantOwn := NLMeans3(own, mask, NLMeansOpts{})
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(shared)
				if got := NLMeans3Memo(shared[i], nil, NLMeansOpts{}); !sameBits(got, wantShared[i]) {
					errs <- fmt.Errorf("caller %d round %d: shared key %d: wrong output", c, r, i)
					return
				}
				if got := NLMeans3Memo(own, mask, NLMeansOpts{}); !sameBits(got, wantOwn) {
					errs <- fmt.Errorf("caller %d round %d: own key: wrong output", c, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := nlmeansStats()
	hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
	if calls := uint64(callers * rounds * 2); hits+misses != calls {
		t.Errorf("%d hits + %d misses, want %d calls", hits, misses, calls)
	}
	// Single-flight: every distinct key is computed exactly once, however
	// many callers ask for it first at the same moment.
	if want := uint64(callers + len(shared)); misses != want {
		t.Errorf("%d misses, want %d: one per distinct key", misses, want)
	}
	if want := int64(callers)*8*5*6*4 + int64(len(shared))*8*6*6*6; s.Bytes-before.Bytes != want {
		t.Errorf("memo grew by %d bytes, want %d: one entry per distinct key", s.Bytes-before.Bytes, want)
	}
}

// MedianOtsuMemo is the two pure sub-steps' bits on a miss and on a
// hit, keyed on the mean's content and the radius, each answer the
// caller's own, and the pure names stay off the table.
func TestMedianOtsuMemoMatchesThePureSteps(t *testing.T) {
	maskStats := func() memo.KindStats { return memo.Snapshot().Kinds[memo.Mask] }
	mean := unseen(streamTestVolume(23, 7, 6, 5))
	before := maskStats()
	want := OtsuMask(MedianFilter3(mean, 1))
	if maskStats() != before {
		t.Fatal("the pure median filter or Otsu threshold went through the memo")
	}
	miss := MedianOtsuMemo(mean, 1)
	if !sameBits(miss, want) {
		t.Fatal("a miss differs from OtsuMask(MedianFilter3(mean, 1))")
	}
	for i := range miss.Data {
		miss.Data[i] = -1
	}
	hit := MedianOtsuMemo(mean.Clone(), 1)
	if !sameBits(hit, want) {
		t.Fatal("a hit differs from OtsuMask(MedianFilter3(mean, 1))")
	}
	if other := MedianOtsuMemo(mean, 2); !sameBits(other, OtsuMask(MedianFilter3(mean, 2))) {
		t.Fatal("radius 2 was answered with another radius' mask")
	}
	if s := maskStats(); s.Hits-before.Hits != 1 || s.Misses-before.Misses != 2 {
		t.Fatalf("mask counters %+v → %+v, want 1 hit and 2 misses", before, s)
	}
}
