package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/volume"
)

// ramp returns a compute that builds a recognizable nx×1×1 volume,
// accounts it at its size and counts its runs.
func ramp(nx int, runs *atomic.Int64) func() (*volume.V3, int64, error) {
	return func() (*volume.V3, int64, error) {
		runs.Add(1)
		v := volume.New3(nx, 1, 1)
		for i := range v.Data {
			v.Data[i] = float64(i)
		}
		return v, v.Bytes(), nil
	}
}

// newTable returns a table of volumes counted under two kinds.
func newTable() *Table[int, *volume.V3] { return NewTable[int, *volume.V3](2) }

// A miss returns what compute built and every hit the same pointer,
// and Each lists it.
func TestHitIsTheHeldValue(t *testing.T) {
	tab := newTable()
	var runs atomic.Int64
	first, err := tab.Do(1, 7, ramp(5, &runs))
	if err != nil || first.NX != 5 {
		t.Fatalf("miss: %v, %+v", err, first)
	}
	for round := 0; round < 2; round++ {
		if hit, err := tab.Do(1, 7, ramp(5, &runs)); err != nil || hit != first {
			t.Fatalf("round %d: %p (%v), the miss returned %p", round, hit, err, first)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	if s := tab.Snapshot(); s.Kinds[1] != (KindStats{Hits: 2, Misses: 1, Bytes: 40}) || s.Bytes != 40 {
		t.Fatalf("counters %+v, want 2 hits, 1 miss, 40 bytes", s)
	}
	var listed []*volume.V3
	tab.Each(func(_ int, v *volume.V3) { listed = append(listed, v) })
	if len(listed) != 1 || listed[0] != first {
		t.Errorf("Each listed %v, want the one held value", listed)
	}
}

// Eight goroutines on one cold key run the computation once; the seven
// that waited count as hits and get the one value.
func TestSingleFlight(t *testing.T) {
	tab := newTable()
	const callers = 8
	var runs atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (*volume.V3, int64, error) {
		close(started) // a second run would panic here
		<-release
		return ramp(3, &runs)()
	}
	outs := make([]*volume.V3, callers)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		out, err := tab.Do(1, 9, compute)
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
		outs[i] = out
	}
	wg.Add(1)
	go call(0)
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	// The waiters are counted before they block, so this returns once
	// all seven have found the entry.
	for tab.Snapshot().Kinds[1].Hits < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	if s := tab.Snapshot().Kinds[1]; s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("counters %+v, want 1 miss and %d hits", s, callers-1)
	}
	for i, out := range outs {
		if out == nil || out != outs[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, out, outs[0])
		}
	}
}

// An error is returned to its caller and never stored; a panic leaves
// the key free too, and neither leaves a waiter hanging.
func TestFailuresAreNotStored(t *testing.T) {
	tab := newTable()
	boom := errors.New("boom")
	if _, err := tab.Do(0, 3, func() (*volume.V3, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in compute was swallowed")
			}
		}()
		tab.Do(0, 3, func() (*volume.V3, int64, error) { panic("kernel bug") })
	}()
	if s := tab.Snapshot(); s.Bytes != 0 || s.Kinds[0].Misses != 2 {
		t.Fatalf("after two failures: %+v", s)
	}
	var runs atomic.Int64
	if _, err := tab.Do(0, 3, ramp(2, &runs)); err != nil || runs.Load() != 1 {
		t.Fatalf("the key did not recover: %v, %d runs", err, runs.Load())
	}

	// A waiter whose leader fails computes for itself.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := tab.Do(0, 4, func() (*volume.V3, int64, error) {
			close(started)
			<-release
			return nil, 0, boom
		})
		done <- err
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, err := tab.Do(0, 4, ramp(2, &runs))
		waiter <- err
	}()
	for tab.Snapshot().Kinds[0].Hits < 1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("leader: %v, want boom", err)
	}
	if err := <-waiter; err != nil || runs.Load() != 2 {
		t.Fatalf("waiter: %v after %d runs, want its own result", err, runs.Load())
	}
}

// All the kinds draw on one budget: an insert that would pass it
// drops the whole table, whatever kind filled it, bytes never pass the
// bound, and answers stay right across the reset. An entry larger than
// the budget is served and not kept.
func TestOneBudgetOneReset(t *testing.T) {
	tab := newTable()
	const voxels = 1 << 20 // 8 MiB a volume, so the ninth insert cannot fit
	var runs atomic.Int64
	for i := 0; i < 11; i++ {
		out, err := tab.Do(i%2, i, ramp(voxels, &runs))
		if err != nil || out.Data[voxels-1] != voxels-1 {
			t.Fatalf("insert %d: %v", i, err)
		}
		s := tab.Snapshot()
		var perKind int64
		for _, k := range s.Kinds {
			perKind += k.Bytes
		}
		if s.Bytes <= 0 || s.Bytes > budget || perKind != s.Bytes {
			t.Fatalf("insert %d: table holds %d bytes (%d by kind), budget %d", i, s.Bytes, perKind, budget)
		}
	}
	s := tab.Snapshot()
	if s.Resets != 1 || s.Bytes != 3*8*voxels {
		t.Fatalf("after 11 inserts of 8 MiB: %+v, want one reset and three entries held", s)
	}
	// Inserts 8–10 stayed; 0–7 went with the reset, whatever their kind.
	for _, i := range []int{8, 9, 10, 0, 1, 2} {
		before := runs.Load()
		if _, err := tab.Do(i%2, i, ramp(voxels, &runs)); err != nil {
			t.Fatal(err)
		}
		if recomputed := runs.Load() != before; recomputed != (i < 8) {
			t.Fatalf("key %d (kind %d): recomputed = %v after the reset", i, i%2, recomputed)
		}
	}

	// Untouched, so the pages are never resident.
	tab = newTable()
	huge := func() (*volume.V3, int64, error) { v := volume.New3(budget/8+1, 1, 1); return v, v.Bytes(), nil }
	for round := 0; round < 2; round++ {
		if _, err := tab.Do(1, 99, huge); err != nil {
			t.Fatal(err)
		}
	}
	if s := tab.Snapshot(); s.Bytes != 0 || s.Kinds[1].Misses != 2 || s.Resets != 0 {
		t.Fatalf("an entry over the budget was kept: %+v", s)
	}
}

// A Table hands every caller the one stored value, counts under the
// kind of each call, and Each lists what is held and not what is
// still being computed.
func TestTableSharesTheStoredValue(t *testing.T) {
	tab := NewTable[string, *int](2)
	build := func() (*int, int64, error) { return new(int), 8, nil }
	a, err := tab.Do(1, "a", build)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tab.Do(1, "a", build); again != a {
		t.Fatalf("second call got %p, first %p", again, a)
	}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tab.Do(0, "b", func() (*int, int64, error) {
			close(started)
			<-release
			return new(int), 8, nil
		})
	}()
	<-started
	held := map[string]*int{}
	tab.Each(func(k string, v *int) { held[k] = v })
	if len(held) != 1 || held["a"] != a {
		t.Errorf("with b in flight Each listed %v, want a alone", held)
	}
	close(release)
	<-done
	if s := tab.Snapshot(); s.Bytes != 16 || s.Kinds[1] != (KindStats{Hits: 1, Misses: 1, Bytes: 8}) || s.Kinds[0].Misses != 1 {
		t.Errorf("counters %+v", s)
	}
}

// One table under concurrent hits, claims, failed and panicking
// computes and budget resets (every third large value drops the table):
// every caller gets its key's value or its key's failure, every call is
// one hit or one miss, and the table stays within its budget. Run it
// with -race at GOMAXPROCS=8.
func TestTableStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers, calls, keys = 8, 3000, 48
	tab := NewTable[int, *int](2)
	failed := errors.New("failed")
	compute := func(k int) func() (*int, int64, error) {
		return func() (*int, int64, error) {
			switch k % 4 {
			case 0:
				return nil, 0, failed
			case 1:
				panic(failed)
			case 2:
				return &k, budget / 3, nil
			}
			return &k, 1, nil
		}
	}
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // readers beside the traffic
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.Each(func(k int, v *int) {
				if *v != k {
					t.Errorf("Each: key %d holds %d", k, *v)
				}
			})
			if s := tab.Snapshot(); s.Bytes > budget {
				t.Errorf("the table holds %d bytes", s.Bytes)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := (i*7 + w*13) % keys
				func() {
					defer func() {
						if r := recover(); r != nil && k%4 != 1 {
							t.Errorf("key %d panicked: %v", k, r)
						}
					}()
					v, err := tab.Do(k%2, k, compute(k))
					switch k % 4 {
					case 0, 1:
						if err != failed {
							t.Errorf("key %d: got %v, %v, want its failure", k, v, err)
						}
					default:
						if err != nil || v == nil || *v != k {
							t.Errorf("key %d: got %v, %v", k, v, err)
						}
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped
	s := tab.Snapshot()
	var total uint64
	for _, k := range s.Kinds {
		total += k.Hits + k.Misses
	}
	if total != workers*calls || s.Resets == 0 || s.Bytes > budget {
		t.Fatalf("%d calls counted of %d, %d resets, %d bytes held", total, workers*calls, s.Resets, s.Bytes)
	}
}
