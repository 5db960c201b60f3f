package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

// fakeEngine is a minimal Engine for registry tests. The name sorts
// after the real engines and it holds no capabilities, so its presence
// in the global registry cannot disturb any Supporting set.
type fakeEngine struct{ name string }

func (f fakeEngine) Name() string             { return f.name }
func (fakeEngine) Capabilities() CapSet       { return CapSet{} }
func (fakeEngine) RecoveryKind() RecoveryKind { return RecoverManualRerun }
func (f fakeEngine) RunNeuro(context.Context, *neuro.Workload, *cluster.Cluster, *cost.Model, Opts) (Result, error) {
	return Result{}, Unsupported("engine %s: fake", f.name)
}
func (f fakeEngine) RunAstro(context.Context, *astro.Workload, *cluster.Cluster, *cost.Model, Opts) (Result, error) {
	return Result{}, Unsupported("engine %s: fake", f.name)
}
func (fakeEngine) RunWithFaults(cl *cluster.Cluster, run func() error) (int, error) {
	return 0, run()
}
func (fakeEngine) Runners(Cap) []Runner           { return nil }
func (fakeEngine) SourceFiles() map[string]string { return nil }

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakeEngine{name: "zz-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate engine name should panic")
		}
	}()
	Register(fakeEngine{name: "zz-dup"})
}

func TestLookupUnknownIsErrUnsupported(t *testing.T) {
	_, err := Lookup("Flink")
	if err == nil {
		t.Fatal("Lookup of an unregistered engine should fail")
	}
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Lookup error %v should wrap ErrUnsupported", err)
	}
}

func TestLookupFindsTheFiveSystems(t *testing.T) {
	for _, name := range []string{"Spark", "Myria", "Dask", "SciDB", "TensorFlow"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("Lookup(%s) returned engine named %s", name, e.Name())
		}
	}
}

func TestAllIsSortedByName(t *testing.T) {
	names := Names(All())
	if !sort.StringsAreSorted(names) {
		t.Fatalf("All() not sorted: %v", names)
	}
	if len(names) < 5 {
		t.Fatalf("All() = %v, want at least the five evaluated systems", names)
	}
}

// TestSupportingPaperOrder pins the comparison sets and their paper
// order — the row labels of the reproduced tables. Any change here is
// a change to every golden file that lists systems.
func TestSupportingPaperOrder(t *testing.T) {
	want := map[Cap][]string{
		CapNeuroE2E:       {"Dask", "Myria", "Spark"},
		CapAstroE2E:       {"Spark", "Myria"},
		CapNeuroIngest:    {"Myria", "Spark", "Dask", "TensorFlow", "SciDB"},
		CapNeuroStep:      {"Dask", "Myria", "Spark", "SciDB", "TensorFlow"},
		CapAstroCoadd:     {"Spark", "Myria", "SciDB"},
		CapFaultTolerance: {"Spark", "Myria", "Dask", "TensorFlow", "SciDB"},
		CapLoC:            {"Dask", "SciDB", "Spark", "Myria", "TensorFlow"},
	}
	for cap, wantNames := range want {
		if got := Names(Supporting(cap)); !reflect.DeepEqual(got, wantNames) {
			t.Errorf("Supporting(%s) = %v, want %v", cap, got, wantNames)
		}
	}
}

// TestCapabilityInterfaces verifies that a capability and its backing
// are one fact: every registered engine holds a step-level capability
// exactly when it binds runners for it (and CapLoC exactly when it lists
// source files), so a registry-driven experiment never meets a claim
// with no path behind it. Row labels are unique across the registry — a
// reproduced table addresses its rows by label — and, in Supporting
// order, are exactly the rows of the committed fig11, fig12a and fig12d
// goldens: a shuffled rank, a renamed label or a dropped runner fails
// here with a readable diff instead of inside a byte comparison.
func TestCapabilityInterfaces(t *testing.T) {
	for c, golden := range map[Cap]string{CapNeuroIngest: "fig11", CapNeuroStep: "fig12a", CapAstroCoadd: "fig12d"} {
		bound := map[string]string{} // label → engine
		for _, e := range All() {
			runners := e.Runners(c)
			if held := e.Capabilities().Has(c); held != (len(runners) > 0) {
				t.Errorf("%s: holds %s = %v but binds %d runners", e.Name(), c, held, len(runners))
			}
			for _, r := range runners {
				if r.Label == "" || r.Run == nil {
					t.Errorf("%s: a %s runner is missing its label or function (label %q)", e.Name(), c, r.Label)
				}
				if prev, dup := bound[r.Label]; dup {
					t.Errorf("%s label %q bound by both %s and %s", c, r.Label, prev, e.Name())
				}
				bound[r.Label] = e.Name()
			}
		}

		b, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden", golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tab struct {
			Rows []string `json:"rows"`
		}
		if err := json.Unmarshal(b, &tab); err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, e := range Supporting(c) {
			for _, r := range e.Runners(c) {
				labels = append(labels, r.Label)
			}
		}
		if !reflect.DeepEqual(labels, tab.Rows) {
			t.Errorf("%s labels in Supporting order = %v, golden %s rows = %v", c, labels, golden, tab.Rows)
		}
	}
	for _, e := range All() {
		if held := e.Capabilities().Has(CapLoC); held != (len(e.SourceFiles()) > 0) {
			t.Errorf("%s: holds %s = %v but lists %d source files", e.Name(), CapLoC, held, len(e.SourceFiles()))
		}
	}
}

// TestRecoveryKinds pins each engine's recovery classification (the ft*
// experiments' qualitative axis) and the partial/total split that
// checkFT relies on.
func TestRecoveryKinds(t *testing.T) {
	want := map[string]RecoveryKind{
		"Spark":      RecoverLineage,
		"Dask":       RecoverResubmit,
		"TensorFlow": RecoverCheckpoint,
		"Myria":      RecoverRestart,
		"SciDB":      RecoverManualRerun,
	}
	for name, kind := range want {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.RecoveryKind(); got != kind {
			t.Errorf("%s recovery = %s, want %s", name, got, kind)
		}
	}
	for kind, partial := range map[RecoveryKind]bool{
		RecoverLineage:     true,
		RecoverResubmit:    true,
		RecoverCheckpoint:  false,
		RecoverRestart:     false,
		RecoverManualRerun: false,
	} {
		if kind.Partial() != partial {
			t.Errorf("%s.Partial() = %v, want %v", kind, kind.Partial(), partial)
		}
	}
}

// TestMemFloor pins the per-node memory floor of the end-to-end
// experiment clusters: 10× the input model bytes spread across nodes.
// The ft* and fig10 experiments both size clusters through this helper,
// so a drift here shifts every end-to-end golden file.
func TestMemFloor(t *testing.T) {
	cases := []struct {
		inputBytes int64
		nodes      int
		want       int64
	}{
		{inputBytes: 160 << 20, nodes: 4, want: 419430400},  // 10*160MiB/4 = 400 MiB
		{inputBytes: 160 << 20, nodes: 16, want: 104857600}, // 100 MiB
		{inputBytes: 7, nodes: 3, want: 23},                 // integer division, like the inlined original
	}
	for _, c := range cases {
		if got := MemFloor(c.inputBytes, c.nodes); got != c.want {
			t.Errorf("MemFloor(%d, %d) = %d, want %d", c.inputBytes, c.nodes, got, c.want)
		}
	}
}

func TestCapSetNames(t *testing.T) {
	s := CapSet{CapFaultTolerance: 1, CapNeuroE2E: 3}
	want := []string{"neuro-e2e", "fault-tolerance"} // declaration order, not rank order
	if got := s.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if s.Has(CapAstroE2E) {
		t.Fatal("Has(CapAstroE2E) on a set without it")
	}
}
