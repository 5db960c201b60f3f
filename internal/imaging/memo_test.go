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
// random shapes, every kind of mask and explicit as well as derived H,
// and the hit is the value the miss stored.
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
				if hit != miss {
					t.Fatal("the hit is not the volume the miss stored")
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

// forceReset makes the stage memo drop everything it holds: two values
// that claim 40 MiB each cannot be held together.
func forceReset(t *testing.T) {
	t.Helper()
	resets := memo.Snapshot().Resets
	for i := 0; i < 2; i++ {
		k := memo.NewKey(memo.Detect)
		k.U64(uint64(memoSalt.Add(1)))
		if _, err := k.Shared(func() (any, int64, error) { return new(int), 40 << 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Snapshot().Resets == resets {
		t.Fatal("two 40 MiB values did not reset the memo")
	}
}

// The memo hands out the volume it holds, to read: every call on one
// content gets that pointer, and a key over it reads its digest from
// the memo's index. A copy of it with one voxel changed is another
// input, never answered from the original's entry; and after a reset
// the volume handed out before it is keyed as before, by its content.
func TestMemoSharesTheHeldValue(t *testing.T) {
	orig := unseen(streamTestVolume(8, 6, 5, 7))
	mask := onesMask(orig)
	want := NLMeans3(orig, mask, NLMeansOpts{})
	before := nlmeansStats()
	first := NLMeans3Memo(orig, mask, NLMeansOpts{})
	if second := NLMeans3Memo(orig.Clone(), mask.Clone(), NLMeansOpts{}); second != first || !sameBits(first, want) {
		t.Fatalf("equal content: %p, then %p; bits equal to NLMeans3: %v", first, second, sameBits(first, want))
	}
	wantStats(t, before, 1, 1)

	// Denoising the held output again keys it through the index; the
	// mask is the caller's, so it is hashed.
	digests := memo.Snapshot()
	again := NLMeans3Memo(first, mask, NLMeansOpts{})
	if s := memo.Snapshot(); s.IndexedDigests-digests.IndexedDigests != 1 || s.ContentDigests-digests.ContentDigests != 1 {
		t.Errorf("keying a held volume and a caller's mask: %d digests from the index and %d hashed, want 1 and 1",
			s.IndexedDigests-digests.IndexedDigests, s.ContentDigests-digests.ContentDigests)
	}
	if !sameBits(again, NLMeans3(first, mask, NLMeansOpts{})) {
		t.Fatal("the held output, denoised again, differs from NLMeans3")
	}

	changed := first.Clone()
	changed.Data[5] = math.Nextafter(changed.Data[5], math.Inf(1))
	before = nlmeansStats()
	if got := NLMeans3Memo(changed, mask, NLMeansOpts{}); got == again || !sameBits(got, NLMeans3(changed, mask, NLMeansOpts{})) {
		t.Fatal("a copy with one voxel changed was answered from the original's entry")
	}
	wantStats(t, before, 0, 1)

	key := memo.Digest(first)
	forceReset(t)
	if memo.Digest(first) != key {
		t.Fatal("a volume handed out before the reset has another digest after it")
	}
	before = nlmeansStats()
	NLMeans3Memo(first, mask, NLMeansOpts{})
	if hit := NLMeans3Memo(first.Clone(), mask, NLMeansOpts{}); !sameBits(hit, again) {
		t.Fatal("after the reset, a copy of the handed-out volume was answered from another entry")
	}
	wantStats(t, before, 1, 1)
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
// hit, keyed on the mean's content and the radius, the hit the mask the
// miss stored, and the pure names stay off the table.
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
	if hit := MedianOtsuMemo(mean.Clone(), 1); hit != miss {
		t.Fatal("a hit is not the mask the miss stored")
	}
	if other := MedianOtsuMemo(mean, 2); !sameBits(other, OtsuMask(MedianFilter3(mean, 2))) {
		t.Fatal("radius 2 was answered with another radius' mask")
	}
	if s := maskStats(); s.Hits-before.Hits != 1 || s.Misses-before.Misses != 2 {
		t.Fatalf("mask counters %+v → %+v, want 1 hit and 2 misses", before, s)
	}
}
