package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/fan"
	"imagebench/internal/imaging"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
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
	if b := fan.Busy(); b != 0 {
		t.Fatalf("fan.Busy() = %d after every call returned, want 0", b)
	}
}

func TestForEachGridCellCoversTheGrid(t *testing.T) {
	var seen [][2]int
	var mu sync.Mutex
	if err := forEachGridCell(context.Background(), 3, 2, func(col, row int) error {
		mu.Lock()
		seen = append(seen, [2]int{col, row})
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(seen, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	if want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}; !slices.Equal(seen, want) {
		t.Fatalf("grid cells %v, want %v", seen, want)
	}
}

// A kernel forced inside a cell whose callers hold every P runs its
// tiles on the cell's own goroutine: no helper starts, and the output
// is the sequential one bit for bit.
func TestKernelInACountedCellStartsNoHelper(t *testing.T) {
	v := volume.New3(9, 8, 12)
	for i := range v.Data {
		v.Data[i] = float64(i%17) * 1.5
	}
	want := imaging.NLMeans3(v, nil, imaging.NLMeansOpts{Workers: 1})
	for _, procs := range []int{1, 2} {
		setGOMAXPROCS(t, procs)
		var entered, done, wg sync.WaitGroup
		entered.Add(procs)
		done.Add(procs)
		outs := make([]*volume.V3, procs)
		errs := make([]error, procs)
		before := fan.Helpers()
		for c := range procs {
			e := &Experiment{ID: "zz-test-kernel", Run: func(context.Context, Profile) (*Table, error) {
				// Every caller is counted before any kernel starts and
				// until every kernel has returned: a caller that left
				// would free a core for a helper.
				entered.Done()
				entered.Wait()
				outs[c] = imaging.NLMeans3(v, nil, imaging.NLMeansOpts{})
				done.Done()
				done.Wait()
				return nil, nil
			}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[c] = e.RunContext(context.Background(), Quick())
			}()
		}
		wg.Wait()
		if n := fan.Helpers() - before; n != 0 {
			t.Errorf("GOMAXPROCS %d, every P counted: %d helpers started", procs, n)
		}
		for c, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if outs[c].Data[i] != want.Data[i] {
					t.Fatalf("GOMAXPROCS %d: voxel %d = %v, want %v (must be bit-identical)", procs, i, outs[c].Data[i], want.Data[i])
				}
			}
		}
		wantNoHelpersLeft(t)
	}
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
			return nil, fan.Each(ctx, 64, 0, func(int) error {
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
