package volume

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func rampVolume(nx, ny, nz int) *V3 {
	v := New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = float64(i) * 0.5
	}
	return v
}

func TestSlabsCoverAndAlias(t *testing.T) {
	v := rampVolume(3, 4, 10)
	src := Slabs(v, 3)
	covered := 0
	for {
		bv, ok := src.Next()
		if !ok {
			break
		}
		if bv.V.NZ != bv.B.Z1-bv.B.Z0 {
			t.Fatalf("slab %v has NZ=%d", bv.B, bv.V.NZ)
		}
		// The view aliases v: writing through it must write v.
		bv.V.Set(0, 0, 0, -1)
		if v.At(0, 0, bv.B.Z0) != -1 {
			t.Fatalf("slab %v does not alias the source", bv.B)
		}
		v.Set(0, 0, bv.B.Z0, 0)
		covered += bv.V.NZ
		bv.Release() // no-op for views: must not panic or pool v's data
	}
	if covered != v.NZ {
		t.Fatalf("slabs covered %d planes, want %d", covered, v.NZ)
	}
}

// TestMapCollectIdentity is the core streaming invariant: Map over
// slabs followed by Collect must reproduce exactly the volume a direct
// whole-volume transform produces, at any worker count, including
// workers > number of tiles.
func TestMapCollectIdentity(t *testing.T) {
	v := rampVolume(5, 4, 17)
	want := New3(v.NX, v.NY, v.NZ)
	for i, x := range v.Data {
		want.Data[i] = 3*x + 1
	}
	tiles := len(TileZ(v.NZ, 2))
	for _, workers := range []int{1, 2, 4, 8, tiles + 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ar := NewArena()
			out := Collect(v.NX, v.NY, v.NZ, Map(context.Background(), Slabs(v, 2), ar, workers,
				func(in BlockVol, o *V3) {
					jitter(in.B.Z0)
					for i, x := range in.V.Data {
						o.Data[i] = 3*x + 1
					}
				}))
			if d := MaxAbsDiff(out, want); d != 0 {
				t.Fatalf("streamed transform differs from direct: max |Δ| = %g", d)
			}
			st := ar.Stats()
			if st.Gets != int64(tiles) {
				t.Fatalf("arena gets = %d, want %d (one per tile)", st.Gets, tiles)
			}
			if st.Puts != st.Gets {
				t.Fatalf("arena leaked buffers: gets=%d puts=%d", st.Gets, st.Puts)
			}
		})
	}
}

// jitter delays a block by 0–60µs, picked by a multiplicative hash of
// seed, so blocks finish in an order unrelated to the order they were
// started.
func jitter(seed int) {
	time.Sleep(time.Duration(uint32(seed)*2654435761>>30) * 20 * time.Microsecond)
}

// TestMapEmitsInOrder is the ordering property: whichever block
// finishes first, downstream consumers see strictly ascending Z0. Many
// short streams with per-block jitter force the interleavings a single
// long stream on one core never produces.
func TestMapEmitsInOrder(t *testing.T) {
	const streams, nz = 300, 12
	v := rampVolume(2, 2, nz)
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ar := NewArena()
			for n := 0; n < streams; n++ {
				s := Map(context.Background(), Slabs(v, 1), ar, workers, func(in BlockVol, o *V3) {
					jitter(n*nz + in.B.Z0)
					copy(o.Data, in.V.Data)
				})
				last := -1
				for {
					bv, ok := s.Next()
					if !ok {
						break
					}
					if bv.B.Z0 <= last {
						t.Fatalf("stream %d: block Z0=%d emitted after Z0=%d", n, bv.B.Z0, last)
					}
					last = bv.B.Z0
					bv.Release()
				}
				if last != nz-1 {
					t.Fatalf("stream %d: last block Z0=%d, want %d", n, last, nz-1)
				}
			}
		})
	}
}

// mapReadAheadSlack is the constant in Map's read-ahead bound: besides
// the workers blocks queued, one more is outstanding — the block the
// consumer has popped and is waiting for or still holds.
const mapReadAheadSlack = 1

// TestMapReadAheadBounded is the memory property: a consumer stalled
// behind one slow block never has more than workers+mapReadAheadSlack
// output buffers outstanding, however long the stream is.
func TestMapReadAheadBounded(t *testing.T) {
	const nz = 64
	v := rampVolume(2, 2, nz)
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bound := int64(workers + mapReadAheadSlack)
			ar := NewArena()
			gate := make(chan struct{})
			var started, peak atomic.Int64
			full := make(chan struct{})
			s := Map(context.Background(), Slabs(v, 1), ar, workers, func(in BlockVol, o *V3) {
				// fn runs after its output buffer was taken, so Gets-Puts
				// here counts every buffer currently outstanding.
				st := ar.Stats()
				out := st.Gets - st.Puts
				for p := peak.Load(); out > p && !peak.CompareAndSwap(p, out); p = peak.Load() {
				}
				if started.Add(1) == bound {
					close(full)
				}
				if in.B.Z0 == 0 {
					<-gate // the slow block the consumer stalls behind
				}
				copy(o.Data, in.V.Data)
			})
			done := make(chan struct{})
			go func() {
				defer close(done)
				Drain(s) // blocks in the first Next until the gate opens
			}()
			<-full
			// Everything the bound allows is now in flight. Give a stage
			// that ignores the bound time to run further ahead, then
			// check it did not.
			time.Sleep(20 * time.Millisecond)
			if n := started.Load(); n != bound {
				t.Errorf("%d blocks started while the consumer was stalled, want exactly %d", n, bound)
			}
			close(gate)
			<-done
			if p := peak.Load(); p > bound {
				t.Errorf("peak outstanding buffers = %d, want <= workers+%d = %d", p, mapReadAheadSlack, bound)
			}
			if st := ar.Stats(); st.Gets != nz || st.Puts != st.Gets {
				t.Errorf("arena gets=%d puts=%d, want %d of each", st.Gets, st.Puts, nz)
			}
		})
	}
}

// TestDrainReleasesRemaining is the cleanup property: a consumer that
// stops early — with or without canceling the stage's context — and
// then Drains leaves no buffer stranded and no goroutine behind.
func TestDrainReleasesRemaining(t *testing.T) {
	v := rampVolume(2, 2, 48)
	for _, tc := range []struct {
		name   string
		taken  int
		cancel bool
	}{
		{"abandon", 1, false},
		{"cancel-early", 1, true},
		{"cancel-mid", 20, true},
		{"cancel-late", 47, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for rep := 0; rep < 20; rep++ {
				ar := NewArena()
				ctx, cancel := context.WithCancel(context.Background())
				s := Map(ctx, Slabs(v, 1), ar, 4, func(in BlockVol, o *V3) {
					jitter(rep + in.B.Z0)
					copy(o.Data, in.V.Data)
				})
				for i := 0; i < tc.taken; i++ {
					bv, ok := s.Next()
					if !ok || bv.B.Z0 != i {
						t.Fatalf("rep %d: block %d = %v, %v", rep, i, bv.B, ok)
					}
					bv.Release()
				}
				if tc.cancel {
					cancel()
				}
				Drain(s)
				cancel()
				if _, ok := s.Next(); ok {
					t.Fatalf("rep %d: drained stream yielded a block", rep)
				}
				if st := ar.Stats(); st.Puts != st.Gets {
					t.Fatalf("rep %d: drain left buffers stranded: gets=%d puts=%d", rep, st.Gets, st.Puts)
				}
			}
			// Every stage goroutine exits once its stream is drained;
			// the last few may still be unwinding when Drain returns.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before, %d still running after drain", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSharedArenaConcurrentPipelines is the aliasing stress for the
// process-wide scratch arena: many pipelines recycling buffers through
// one arena concurrently must each still produce exactly their own
// result (run under -race in CI).
func TestSharedArenaConcurrentPipelines(t *testing.T) {
	ar := NewArena()
	const pipelines = 8
	var wg sync.WaitGroup
	errs := make([]error, pipelines)
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v := New3(4, 3, 9)
			for i := range v.Data {
				v.Data[i] = float64(p*1000 + i)
			}
			out := Collect(v.NX, v.NY, v.NZ, Map(context.Background(), Slabs(v, 2), ar, 3,
				func(in BlockVol, o *V3) {
					for i, x := range in.V.Data {
						o.Data[i] = x + 1
					}
				}))
			for i := range v.Data {
				if out.Data[i] != v.Data[i]+1 {
					errs[p] = fmt.Errorf("pipeline %d voxel %d = %g, want %g (cross-pipeline scribble)",
						p, i, out.Data[i], v.Data[i]+1)
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

// TestArenaReuseAndReshape checks what Arena promises — shape, length,
// call accounting — and, where the runtime lets a
// sync.Pool keep what it was given (see poolRetains), that a returned
// buffer is actually reused and reshaped rather than reallocated.
func TestArenaReuseAndReshape(t *testing.T) {
	ar := NewArena()
	a := ar.Get(4, 4, 4)
	for i := range a.Data {
		a.Data[i] = 7
	}
	ar.Put(a)
	b := ar.Get(4, 4, 4) // same shape: may come back dirty
	if b.NX != 4 || b.NY != 4 || b.NZ != 4 || len(b.Data) != 64 {
		t.Fatalf("same-shape Get has wrong geometry: %d×%d×%d len %d", b.NX, b.NY, b.NZ, len(b.Data))
	}
	ar.Put(b)
	c := ar.Get(2, 2, 2) // smaller shape: reshaped in place when pooled
	if c.NX != 2 || c.NY != 2 || c.NZ != 2 || len(c.Data) != 8 {
		t.Fatalf("reshaped volume has wrong geometry: %d×%d×%d len %d", c.NX, c.NY, c.NZ, len(c.Data))
	}
	for i := range c.Data {
		c.Data[i] = 7
	}
	ar.Put(c)
	ar.Get(2, 2, 2)
	st := ar.Stats()
	if st.Gets != 4 || st.Puts != 3 {
		t.Fatalf("gets=%d puts=%d, want 4 and 3", st.Gets, st.Puts)
	}
	if st.Misses < 1 || st.Misses > st.Gets {
		t.Fatalf("misses = %d, want between 1 (the first Get) and gets = %d", st.Misses, st.Gets)
	}
	if poolRetains {
		if &b.Data[0] != &a.Data[0] {
			t.Error("same-shape Get did not reuse the pooled buffer")
		}
		if &c.Data[0] != &a.Data[0] {
			t.Error("smaller Get did not reshape the pooled buffer")
		}
		if st.Misses != 1 {
			t.Errorf("misses = %d, want 1 (only the first Get allocates)", st.Misses)
		}
	}
}

func TestNilArenaDegradesToAllocation(t *testing.T) {
	var ar *Arena
	v := ar.Get(2, 3, 4)
	if v.NX != 2 || v.NY != 3 || v.NZ != 4 {
		t.Fatalf("nil-arena Get shape %d×%d×%d", v.NX, v.NY, v.NZ)
	}
	for _, x := range v.Data {
		if x != 0 {
			t.Fatal("nil-arena Get must be a plain zeroed allocation")
		}
	}
	ar.Put(v) // no-op, must not panic
	if st := ar.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil-arena stats = %+v", st)
	}
	bv := BlockVol{}
	bv.Release() // zero-value release is a no-op
}
