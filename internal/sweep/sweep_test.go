package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// The tests register three synthetic experiments (IDs "zz-sw-a/b/c") so
// grids stay fast and executions are countable; grid expansion over the
// real registry is covered through core.ExpandIDs's own tests.

var (
	runsA, runsB, runsC atomic.Int64
	registerO           sync.Once
)

func registerFakes() {
	registerO.Do(func() {
		mk := func(counter *atomic.Int64) func(context.Context, core.Profile) (*core.Table, error) {
			return func(ctx context.Context, p core.Profile) (*core.Table, error) {
				counter.Add(1)
				time.Sleep(5 * time.Millisecond)
				t := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
				t.Set("r", "c", float64(p.ClusterNodes[0]))
				return t, nil
			}
		}
		for id, c := range map[string]*atomic.Int64{"zz-sw-a": &runsA, "zz-sw-b": &runsB, "zz-sw-c": &runsC} {
			core.Register(&core.Experiment{
				ID: id, Title: "fake " + id, Paper: "n/a",
				Run: mk(c), Check: func(*core.Table) error { return nil },
			})
		}
	})
}

func resetRuns() { runsA.Store(0); runsB.Store(0); runsC.Store(0) }

func totalRuns() int64 { return runsA.Load() + runsB.Load() + runsC.Load() }

func newTestManager(t *testing.T, cacheDir, sweepDir string) (*Manager, *runner.Scheduler, *results.Cache) {
	t.Helper()
	registerFakes()
	cache, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.New(runner.Options{Workers: 2, Cache: cache})
	t.Cleanup(sched.Close)
	m, err := NewManager(sched, cache, sweepDir, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	return m, sched, cache
}

func TestExpandGrid(t *testing.T) {
	registerFakes()
	spec := Spec{
		Experiments: []string{"zz-sw-*"},
		Profiles:    []string{"quick"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 { // 3 experiments × 1 profile × 2 overrides
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	// Deterministic order: sorted by experiment, then spec axis order.
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1], cells[i]
		if a.Experiment > b.Experiment || (a.Experiment == b.Experiment && a.axis > b.axis) {
			t.Errorf("cells out of order at %d: %s/%s then %s/%s", i, a.Experiment, a.Profile.Name, b.Experiment, b.Profile.Name)
		}
	}
	// Keys are unique and derived profiles are named after the override.
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key] {
			t.Errorf("duplicate cell key %s", c.Key)
		}
		seen[c.Key] = true
		if !strings.HasPrefix(c.Profile.Name, "quick+nodes=") {
			t.Errorf("cell profile name = %q", c.Profile.Name)
		}
	}
	// The same grid written differently has the same identity.
	same, err := Expand(Spec{
		Experiments: []string{"zz-sw-a", "zz-sw-b", "zz-sw-c", "zz-sw-a"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id(cells) != id(same) {
		t.Error("equivalent specs expanded to different sweep IDs")
	}
}

func TestExpandDefaultsAndErrors(t *testing.T) {
	registerFakes()
	cells, err := Expand(Spec{Experiments: []string{"zz-sw-a"}})
	if err != nil || len(cells) != 1 || cells[0].Profile.Name != "quick" {
		t.Fatalf("default expansion = %v cells, err %v", len(cells), err)
	}
	for _, bad := range []Spec{
		{},
		{Experiments: []string{"no-such-*"}},
		{Experiments: []string{"zz-sw-a"}, Profiles: []string{"huge"}},
		{Experiments: []string{"zz-sw-a"}, Overrides: []core.Overrides{{ClusterNodes: []int{-1}}}},
	} {
		if _, err := Expand(bad); err == nil {
			t.Errorf("spec %+v expanded without error", bad)
		}
	}
}

func TestSweepCompletesAndAggregates(t *testing.T) {
	m, _, _ := newTestManager(t, "", "")
	resetRuns()

	s, existing, err := m.Submit(Spec{
		Experiments: []string{"zz-sw-*"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}},
	})
	if err != nil || existing {
		t.Fatalf("submit: existing=%v err=%v", existing, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	info := s.Info(true)
	if !info.Finished() || info.Done != 6 || info.Failed != 0 || info.Total != 6 {
		t.Fatalf("info = %+v, want 6/6 done", info)
	}
	if len(info.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(info.Cells))
	}
	if got := totalRuns(); got != 6 {
		t.Errorf("executed %d cells, want 6", got)
	}
	// Each cell's table reflects its override (the fake emits the node count).
	var cell *Cell
	for _, c := range s.Cells {
		if c.Experiment == "zz-sw-b" && c.Profile.Name == "quick+nodes=8" {
			cell = c
		}
	}
	if cell == nil {
		t.Fatal("missing cell zz-sw-b/quick+nodes=8")
	}
	tab, ok := s.Result(cell, nil)
	if !ok || tab.Get("r", "c") != 8 {
		t.Errorf("cell table = %v, %v; want node count 8", tab, ok)
	}
	rows, cols := s.GridLabels()
	if len(rows) != 3 || len(cols) != 2 {
		t.Errorf("grid = %v × %v, want 3 × 2", rows, cols)
	}

	// Resubmitting the same grid is idempotent and runs nothing new.
	s2, existing, err := m.Submit(Spec{Experiments: []string{"zz-sw-a", "zz-sw-b", "zz-sw-c"},
		Overrides: []core.Overrides{{ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}}})
	if err != nil || !existing || s2.ID != s.ID {
		t.Fatalf("resubmit: %v existing=%v err=%v", s2, existing, err)
	}
	if got := totalRuns(); got != 6 {
		t.Errorf("idempotent resubmit re-executed: %d runs", got)
	}
	if m.Len() != 1 {
		t.Errorf("manager holds %d sweeps, want 1", m.Len())
	}
}

// TestRecoverRehydratesCompletedCells is the restart contract at the
// engine level: a second manager over the same cache and sweep dirs
// adopts the sweep, serves completed cells from the cache without
// re-executing them, and resubmits only the missing ones.
func TestRecoverRehydratesCompletedCells(t *testing.T) {
	dir := t.TempDir()
	cacheDir, sweepDir := filepath.Join(dir, "cache"), filepath.Join(dir, "sweeps")

	m1, _, cache1 := newTestManager(t, cacheDir, sweepDir)
	resetRuns()
	s1, _, err := m1.Submit(Spec{Experiments: []string{"zz-sw-a", "zz-sw-b"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Simulate a partially-complete sweep on disk: drop one cell's
	// cached result, as if the crash happened before it ran.
	dropped := s1.Cells[1]
	cache1.Close() // first process's memory view is discarded with it
	logPath := filepath.Join(cacheDir, "results.log")
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var rest []byte
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		if !bytes.Contains(line, []byte(dropped.Key)) {
			rest = append(rest, line...)
		}
	}
	if len(rest) == len(log) || len(rest) == 0 {
		t.Fatalf("dropping %.12s left %d of the log's %d bytes", dropped.Key, len(rest), len(log))
	}
	if err := os.WriteFile(logPath, rest, 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh scheduler, cache, manager over the same dirs.
	m2, _, _ := newTestManager(t, cacheDir, sweepDir)
	resetRuns()
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sweeps, want 1", n)
	}
	s2, ok := m2.Get(s1.ID)
	if !ok {
		t.Fatalf("sweep %s not adopted", s1.ID)
	}
	if err := s2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	info := s2.Info(true)
	if !info.Finished() || info.Done != 2 {
		t.Fatalf("recovered info = %+v, want 2/2 done", info)
	}
	if got := totalRuns(); got != 1 {
		t.Errorf("recovery executed %d cells, want exactly the 1 dropped cell", got)
	}
	// The surviving cell reads as a cache-served completion...
	for _, ci := range info.Cells {
		if ci.Key != dropped.Key && !ci.CacheHit {
			t.Errorf("surviving cell %s/%s not marked cache-served: %+v", ci.Experiment, ci.Profile, ci)
		}
	}
	// ...and its table is retrievable through the recovered sweep.
	kept := s2.Cells[0]
	if kept.Key == dropped.Key {
		kept = s2.Cells[1]
	}
	if tab, ok := s2.Result(kept, m2.cache); !ok || tab == nil {
		t.Error("rehydrated cell's table not retrievable")
	}

	// Recover again: idempotent, nothing new adopted or run.
	if n, err := m2.Recover(); err != nil || n != 0 {
		t.Errorf("second recover adopted %d sweeps, err %v; want 0 (already known)", n, err)
	}
	if m2.Len() != 1 {
		t.Errorf("manager holds %d sweeps after double recovery", m2.Len())
	}
}

// TestRecoverReportsAGridThatNoLongerExpands: a spec persisted under an
// ID its grid no longer hashes to, as every sweep written by a binary
// with other result keys is, is reported with both IDs and not adopted,
// and the valid spec beside it still is.
func TestRecoverReportsAGridThatNoLongerExpands(t *testing.T) {
	sweepDir := filepath.Join(t.TempDir(), "sweeps")
	m1, _, _ := newTestManager(t, "", sweepDir)
	valid, _, err := m1.Submit(Spec{Experiments: []string{"zz-sw-a"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := valid.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Experiments: []string{"zz-sw-b"}}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const staleID = "sw-000000000000"
	b, err := json.Marshal(persisted{ID: staleID, Created: time.Now(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sweepDir, staleID+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _, _ := newTestManager(t, "", sweepDir)
	n, err := m2.Recover()
	want := fmt.Sprintf("grid now expands to %s, persisted as %s", GridID(cells), staleID)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Recover error = %v, want it to report %q", err, want)
	}
	if n != 1 || m2.Len() != 1 {
		t.Fatalf("adopted %d sweeps, manager holds %d; want the valid one only", n, m2.Len())
	}
	s, ok := m2.Get(valid.ID)
	if !ok {
		t.Fatalf("valid sweep %s not adopted", valid.ID)
	}
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Get(staleID); ok {
		t.Error("the stale spec was adopted under its old ID")
	}
}

func TestManagerListOrder(t *testing.T) {
	m, _, _ := newTestManager(t, "", "")
	a, _, err := m.Submit(Spec{Experiments: []string{"zz-sw-a"}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(Spec{Experiments: []string{"zz-sw-b"}})
	if err != nil {
		t.Fatal(err)
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Errorf("list = %v", list)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	a.Wait(ctx)
	b.Wait(ctx)
}

// TestExpandKeepsAxisOrder pins the grid-axis contract: columns follow
// the spec's override order, not lexicographic profile names (where
// "nodes=16" would sort before "nodes=4").
func TestExpandKeepsAxisOrder(t *testing.T) {
	registerFakes()
	cells, err := Expand(Spec{
		Experiments: []string{"zz-sw-a"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{16}}, {ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"quick+nodes=16", "quick+nodes=4", "quick+nodes=8"}
	for i, c := range cells {
		if c.Profile.Name != want[i] {
			t.Errorf("cell %d profile = %s, want %s", i, c.Profile.Name, want[i])
		}
	}
	// A reordered axis list is a different presentation of the same
	// grid: same sweep ID (content address over sorted keys).
	reordered, err := Expand(Spec{
		Experiments: []string{"zz-sw-a"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{4}}, {ClusterNodes: []int{8}}, {ClusterNodes: []int{16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id(cells) != id(reordered) {
		t.Error("axis order changed the sweep's content address")
	}
}

// TestManagerEvictsFinishedSweeps pins the retention bound: the oldest
// finished sweeps are dropped past maxSweeps while their results stay
// in the cache.
func TestManagerEvictsFinishedSweeps(t *testing.T) {
	m, _, cache := newTestManager(t, "", "")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first *Sweep
	for i := 0; i < maxSweeps+3; i++ {
		s, _, err := m.Submit(Spec{
			Experiments: []string{"zz-sw-a"},
			Overrides:   []core.Overrides{{ClusterNodes: []int{i + 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = s
		}
	}
	if m.Len() > maxSweeps {
		t.Errorf("manager retains %d sweeps, want <= %d", m.Len(), maxSweeps)
	}
	if _, ok := m.Get(first.ID); ok {
		t.Error("oldest finished sweep survived past maxSweeps")
	}
	// The evicted sweep's cell result is still served from the cache.
	if _, ok := cache.Peek(first.Cells[0].Key); !ok {
		t.Error("evicted sweep's result missing from cache")
	}
}
