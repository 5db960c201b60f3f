package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/synth"
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

func TestForEachCellRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		for _, n := range []int{0, 1, 2, 7, 100} {
			ran := make([]atomic.Int32, n)
			if err := forEachCell(context.Background(), n, func(i int) error {
				ran[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: cell %d ran %d times", procs, n, i, c)
				}
			}
		}
		wantNoHelpersLeft(t)
	}
	var seen [][2]int
	var mu sync.Mutex
	if err := forEachGridCell(context.Background(), 3, 2, func(col, row int) error {
		mu.Lock()
		seen = append(seen, [2]int{col, row})
		mu.Unlock()
		return nil
	}); err != nil || len(seen) != 6 {
		t.Fatalf("grid: %v, %d cells", err, len(seen))
	}
}

// With one P there is no helper: the cells run in index order on the
// caller, which is the serial loop the experiments had.
func TestForEachCellIsSerialOnOneP(t *testing.T) {
	setGOMAXPROCS(t, 1)
	e := &Experiment{ID: "zz-test-serial", Run: func(ctx context.Context, _ Profile) (*Table, error) {
		caller := goid()
		next := 0
		return nil, forEachCell(ctx, 20, func(i int) error {
			if i != next || goid() != caller {
				return fmt.Errorf("cell %d ran at position %d on goroutine %s, caller is %s", i, next, goid(), caller)
			}
			next++
			return nil
		})
	}}
	if _, err := e.RunContext(context.Background(), Quick()); err != nil {
		t.Fatal(err)
	}
}

// Two cells fail, the higher index first: the lower one's error is
// returned, as from the serial loop, and every cell below it ran. Which
// cells past a failure start depends on how the goroutines interleave
// (one can claim and run any number of cells between another's fn
// returning and its failure being recorded), so that is asserted where
// nothing interleaves: on one P, no cell past the failure starts.
func TestForEachCellLowestIndexErrorWins(t *testing.T) {
	setGOMAXPROCS(t, 4)
	err3, err7 := errors.New("cell 3"), errors.New("cell 7")
	sevenFailed := make(chan struct{})
	var ran [16]atomic.Bool
	err := forEachCell(context.Background(), len(ran), func(i int) error {
		ran[i].Store(true)
		switch i {
		case 3:
			select {
			case <-sevenFailed:
			case <-time.After(30 * time.Second):
				t.Error("cell 7 never ran beside cell 3: no helper was started")
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
			t.Errorf("cell %d, below the failure, did not run", i)
		}
	}
	wantNoHelpersLeft(t)

	// Through RunContext, which counts the caller, so no helper starts.
	setGOMAXPROCS(t, 1)
	var past atomic.Bool
	e := &Experiment{ID: "zz-test-stop", Run: func(ctx context.Context, _ Profile) (*Table, error) {
		return nil, forEachCell(ctx, len(ran), func(i int) error {
			if i > 5 {
				past.Store(true)
			}
			if i == 5 {
				return err7
			}
			return nil
		})
	}}
	if _, err := e.RunContext(context.Background(), Quick()); err != err7 {
		t.Fatalf("one P: got %v, want %v", err, err7)
	}
	if past.Load() {
		t.Error("one P: a cell past the failure started")
	}
}

func TestForEachCellStopsWhenContextIsDone(t *testing.T) {
	setGOMAXPROCS(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := forEachCell(ctx, 8, func(i int) error {
		t.Errorf("cell %d ran under a canceled context", i)
		return nil
	}); err != context.Canceled {
		t.Fatalf("pre-canceled: got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := forEachCell(ctx, 1000, func(i int) error {
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
		t.Fatalf("%d cells ran; the cancel came in the fifth", n)
	}
	wantNoHelpersLeft(t)
}

// A panic on a helper goroutine would kill the process from a stack
// that names no experiment; it is carried to the caller instead, after
// the other cells have returned.
func TestForEachCellReraisesAHelperPanicOnTheCaller(t *testing.T) {
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
		if msg := fmt.Sprint(r); !strings.Contains(msg, "helper bug") || !strings.Contains(msg, "cells_test.go") {
			t.Fatalf("re-raised panic does not carry the original message and stack: %v", msg)
		}
		if finished.Load() != 1 {
			t.Fatal("the panic was re-raised before the caller's own cell had returned")
		}
		wantNoHelpersLeft(t)
	}()
	_ = forEachCell(context.Background(), 2, func(i int) error {
		// Both cells are running, so one of them is on the helper.
		both.Done()
		both.Wait()
		if goid() != caller {
			panic("helper bug")
		}
		finished.Add(1)
		return nil
	})
	t.Fatal("forEachCell returned")
}

// However many callers are inside RunContext, the goroutines running
// cells are never more than GOMAXPROCS, or than the callers themselves
// when those alone are more: helpers only fill spare cores.
func TestCellGoroutinesStayWithinGOMAXPROCS(t *testing.T) {
	const procs = 4
	setGOMAXPROCS(t, procs)
	for _, callers := range []int{1, 3, procs, 6} {
		var alive, peak atomic.Int32
		var entered sync.WaitGroup
		entered.Add(callers)
		e := &Experiment{ID: "zz-test-bound", Run: func(ctx context.Context, _ Profile) (*Table, error) {
			// Every caller is counted before any cell starts; a late
			// caller only finds its slot taken until the next boundary.
			entered.Done()
			entered.Wait()
			return nil, forEachCell(ctx, 64, func(int) error {
				a := alive.Add(1)
				for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
				}
				runtime.Gosched()
				alive.Add(-1)
				return nil
			})
		}}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.RunContext(context.Background(), Quick()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got, limit := peak.Load(), int32(max(procs, callers)); got > limit {
			t.Errorf("%d callers on %d Ps: %d goroutines ran cells at once, limit %d", callers, procs, got, limit)
		}
		wantNoHelpersLeft(t)
	}
}

// Every experiment, run through RunContext with eight, two and one Ps,
// is byte-equal to its golden table — the ft tables' notes in engine
// order included, since they are part of those bytes. The second and
// third pass are served the shared inputs and the decodes their objects
// hold, so what they exercise is the fan-out; and after three passes of
// every engine, fault scenario and tuning study over the same shared
// inputs, each input still reads like a freshly built one and each
// held exposure and volume like a fresh decode of its object.
func TestGoldenTablesAtEveryGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("three passes over the registry")
	}
	for _, procs := range []int{8, 2, 1} {
		setGOMAXPROCS(t, procs)
		for _, e := range All() {
			tab, err := e.RunContext(context.Background(), Quick())
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %s: %v", procs, e.ID, err)
			}
			got, err := json.MarshalIndent(tab, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d: %s differs from its golden\n%s", procs, e.ID, diffHint(want, got))
			}
		}
		wantNoHelpersLeft(t)
	}
	wantInputsUnwritten(t)
	wantDecodesUnwritten(t)
}

// A canceled context stops every experiment that has cells before its
// first one: it returns ctx.Err() and no pipeline stage has run, so no
// cluster was built — clusters are built inside cells only — and no
// staged object of the inputs they asked for was decoded. (RunContext
// refuses such a context itself; Run is called directly to reach the
// experiments' own handling, which used to be `_ context.Context`.)
func TestCanceledContextRunsNoCell(t *testing.T) {
	cellFree := map[string]bool{"fig10a": true, "fig10b": true, "table1": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := unseenProfile()
	p.AstroSources += int(unseenNX.Add(1))
	for _, e := range All() {
		_, err := e.Run(ctx, p)
		if cellFree[e.ID] {
			if err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: got %v, want context.Canceled", e.ID, err)
		}
	}
	asked := 0
	eachInput(func(cfg, w any) {
		if c, ok := cfg.(synth.NeuroConfig); ok && c.NX != p.NeuroNX {
			return
		}
		if c, ok := cfg.(synth.AstroConfig); ok && c.Sources != p.AstroSources {
			return
		}
		asked++
		eachDecode(t, w, func(key string, held, _ any) {
			if held != nil {
				t.Errorf("%+v: %s was decoded under a canceled context", cfg, key)
			}
		})
	})
	if asked == 0 {
		t.Error("no experiment asked for an input: nothing was checked")
	}
}
