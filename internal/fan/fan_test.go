package fan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS sets the number of Ps for one test; the tests that use
// it are top-level and sequential, so nothing else runs meanwhile.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// wantNoHelpersLeft fails if a helper slot was not given back.
func wantNoHelpersLeft(t *testing.T) {
	t.Helper()
	if b := busy.Load(); b != 0 {
		t.Fatalf("busy = %d after every call returned, want 0", b)
	}
}

// goid is the running goroutine's number, to tell the caller from a
// helper.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// counted runs fn as a caller between Enter and Leave.
func counted(fn func()) {
	Enter()
	defer Leave()
	fn()
}

func TestEachRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		for _, n := range []int{0, 1, 2, 7, 100} {
			for _, limit := range []int{0, 1, 3} {
				ran := make([]atomic.Int32, n)
				if err := Each(context.Background(), n, limit, func(i int) error {
					ran[i].Add(1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Fatalf("GOMAXPROCS %d, n %d, limit %d: piece %d ran %d times", procs, n, limit, i, c)
					}
				}
			}
		}
		wantNoHelpersLeft(t)
	}
}

// With one P there is no helper: the pieces run in index order on the
// caller, which is the serial loop. A limit of 1 is that loop at any
// GOMAXPROCS.
func TestEachIsSerialOnOneP(t *testing.T) {
	serial := func(limit int) {
		t.Helper()
		caller := goid()
		next := 0
		if err := Each(context.Background(), 20, limit, func(i int) error {
			if i != next || goid() != caller {
				return fmt.Errorf("piece %d ran at position %d on goroutine %s, caller is %s", i, next, goid(), caller)
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	setGOMAXPROCS(t, 1)
	counted(func() { serial(0) })
	setGOMAXPROCS(t, 8)
	serial(1)
}

// Two pieces fail, the higher index first: the lower one's error is
// returned, as from the serial loop, and every piece below it ran. Which
// pieces past a failure start depends on how the goroutines interleave
// (one can claim and run any number of pieces between another's fn
// returning and its failure being recorded), so that is asserted where
// nothing interleaves: on one P, no piece past the failure starts.
func TestEachLowestIndexErrorWins(t *testing.T) {
	setGOMAXPROCS(t, 4)
	err3, err7 := errors.New("piece 3"), errors.New("piece 7")
	sevenFailed := make(chan struct{})
	var ran [16]atomic.Bool
	err := Each(context.Background(), len(ran), 0, func(i int) error {
		ran[i].Store(true)
		switch i {
		case 3:
			select {
			case <-sevenFailed:
			case <-time.After(30 * time.Second):
				t.Error("piece 7 never ran beside piece 3: no helper was started")
			}
			return err3
		case 7:
			defer close(sevenFailed)
			return err7
		}
		return nil
	})
	if err != err3 {
		t.Fatalf("got %v, want the lowest failed index's error (%v)", err, err3)
	}
	for i := 0; i <= 3; i++ {
		if !ran[i].Load() {
			t.Errorf("piece %d, below the failure, did not run", i)
		}
	}
	wantNoHelpersLeft(t)

	// A counted caller on one P, so no helper starts.
	setGOMAXPROCS(t, 1)
	var past atomic.Bool
	counted(func() {
		err = Each(context.Background(), len(ran), 0, func(i int) error {
			if i > 5 {
				past.Store(true)
			}
			if i == 5 {
				return err7
			}
			return nil
		})
	})
	if err != err7 {
		t.Fatalf("one P: got %v, want %v", err, err7)
	}
	if past.Load() {
		t.Error("one P: a piece past the failure started")
	}
}

func TestEachStopsWhenContextIsDone(t *testing.T) {
	setGOMAXPROCS(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Each(ctx, 8, 0, func(i int) error {
		t.Errorf("piece %d ran under a canceled context", i)
		return nil
	}); err != context.Canceled {
		t.Fatalf("pre-canceled: got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := Each(ctx, 1000, 0, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("canceled mid-run: got %v, want context.Canceled", err)
	}
	// Each goroutine can have passed the check once before the cancel
	// became visible to it.
	if n := ran.Load(); n < 5 || n > 5+4 {
		t.Fatalf("%d pieces ran; the cancel came in the fifth", n)
	}
	wantNoHelpersLeft(t)
}

// A panic on a helper goroutine would kill the process from a stack
// that names no caller; it is carried to the caller instead, after the
// other pieces have returned.
func TestEachReraisesAHelperPanicOnTheCaller(t *testing.T) {
	setGOMAXPROCS(t, 2)
	caller := goid()
	var both sync.WaitGroup
	both.Add(2)
	var finished atomic.Int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("the helper's panic was lost")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "helper bug") || !strings.Contains(msg, "fan_test.go") {
			t.Fatalf("re-raised panic does not carry the original message and stack: %v", msg)
		}
		if finished.Load() != 1 {
			t.Fatal("the panic was re-raised before the caller's own piece had returned")
		}
		wantNoHelpersLeft(t)
	}()
	_ = Each(context.Background(), 2, 0, func(i int) error {
		// Both pieces are running, so one of them is on the helper.
		both.Done()
		both.Wait()
		if goid() != caller {
			panic("helper bug")
		}
		finished.Add(1)
		return nil
	})
	t.Fatal("Each returned")
}

// A limit caps the goroutines of one call, the caller included, however
// many cores are spare.
func TestEachLimitCapsGoroutines(t *testing.T) {
	setGOMAXPROCS(t, 8)
	for _, limit := range []int{1, 2, 3} {
		var alive, peak atomic.Int32
		before := Helpers()
		if err := Each(context.Background(), 64, limit, func(int) error {
			a := alive.Add(1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			runtime.Gosched()
			alive.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int32(limit) {
			t.Errorf("limit %d: %d goroutines ran pieces at once", limit, got)
		}
		if got := Helpers() - before; got > int64(limit-1) {
			t.Errorf("limit %d: %d helpers started", limit, got)
		}
		wantNoHelpersLeft(t)
	}
}
