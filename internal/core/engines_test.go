package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"imagebench/internal/engine"
)

// readGoldenRows returns the committed row labels of one golden file —
// the source of truth the registry-derived row sets are checked
// against.
func readGoldenRows(t *testing.T, id string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tab Table
	if err := json.Unmarshal(b, &tab); err != nil {
		t.Fatal(err)
	}
	return tab.RowNames
}

// TestFaultCapableSetMatchesGoldenRows pins the registry against the
// committed artifacts: the engines claiming CapFaultTolerance, in
// paper order, are exactly the row labels of the ft* golden files. A
// new engine that registers the capability without a golden refresh —
// or a rank shuffle that silently reorders rows — fails here with a
// readable diff instead of inside a byte comparison.
func TestFaultCapableSetMatchesGoldenRows(t *testing.T) {
	ftEngines, err := Quick().engines(engine.CapFaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := engine.Names(ftEngines), readGoldenRows(t, "ftneuro"); !reflect.DeepEqual(got, want) {
		t.Errorf("Supporting(CapFaultTolerance) = %v, golden ftneuro rows = %v", got, want)
	}
	astroFT, err := ftAstroEngines(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := engine.Names(astroFT), readGoldenRows(t, "ftastro"); !reflect.DeepEqual(got, want) {
		t.Errorf("fault∩astro engines = %v, golden ftastro rows = %v", got, want)
	}
}

// stepLabels is the row set a step-level figure derives from the
// registry under the quick profile.
func stepLabels(c engine.Cap) ([]string, error) {
	rows, err := stepRunners(Quick(), c)
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Label
	}
	return names, err
}

// TestEndToEndSetsMatchGoldenRows does the same pinning for the
// headline comparison sets and the variant-expanded rows.
func TestEndToEndSetsMatchGoldenRows(t *testing.T) {
	cases := []struct {
		golden string
		rows   func() ([]string, error)
	}{
		{"fig10c", func() ([]string, error) {
			engs, err := Quick().engines(engine.CapNeuroE2E)
			return engine.Names(engs), err
		}},
		{"fig10d", func() ([]string, error) {
			engs, err := Quick().engines(engine.CapAstroE2E)
			return engine.Names(engs), err
		}},
		{"fig11", func() ([]string, error) { return stepLabels(engine.CapNeuroIngest) }},
		{"fig12d", func() ([]string, error) { return stepLabels(engine.CapAstroCoadd) }},
	}
	for _, c := range cases {
		got, err := c.rows()
		if err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		if want := readGoldenRows(t, c.golden); !reflect.DeepEqual(got, want) {
			t.Errorf("%s registry rows = %v, golden rows = %v", c.golden, got, want)
		}
	}
}

// TestSystemsFilter exercises the -systems allowlist: rows shrink to
// the allowed engines, and an experiment whose engine set empties
// reports engine.ErrUnsupported rather than an ad-hoc failure.
func TestSystemsFilter(t *testing.T) {
	p := Quick().Apply(Overrides{Systems: []string{"Spark", "Myria"}})
	e, err := Lookup("fig10c")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Myria", "Spark"}; !reflect.DeepEqual(tab.RowNames, want) {
		t.Errorf("filtered fig10c rows = %v, want %v", tab.RowNames, want)
	}

	// TensorFlow runs no end-to-end neuro sweep: the filter empties the
	// set and the typed unsupported error surfaces.
	tfOnly := Quick().Apply(Overrides{Systems: []string{"TensorFlow"}})
	if _, err := e.Run(context.Background(), tfOnly); !errors.Is(err, engine.ErrUnsupported) {
		t.Errorf("fig10c under TensorFlow-only filter: err = %v, want ErrUnsupported", err)
	}

	// Per-engine tuning studies skip the same way.
	fig13, err := Lookup("fig13")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fig13.Run(context.Background(), Quick().Apply(Overrides{Systems: []string{"Spark"}})); !errors.Is(err, engine.ErrUnsupported) {
		t.Errorf("fig13 under Spark-only filter: err = %v, want ErrUnsupported", err)
	}
}

// TestSystemsFilterFingerprint: a filtered profile must never share a
// result-cache identity with the unfiltered one.
func TestSystemsFilterFingerprint(t *testing.T) {
	base := Quick()
	filtered := base.Apply(Overrides{Systems: []string{"Spark"}})
	if filtered.Name != "quick+systems=Spark" {
		t.Errorf("derived name = %q", filtered.Name)
	}
	if filtered.Fingerprint() == base.Fingerprint() {
		t.Error("systems filter did not change the profile fingerprint")
	}
}

// TestOverridesSystemsValidate covers the systems axis validation.
func TestOverridesSystemsValidate(t *testing.T) {
	if err := (Overrides{Systems: []string{"Spark", "Myria"}}).Validate(); err != nil {
		t.Errorf("valid systems override rejected: %v", err)
	}
	if err := (Overrides{Systems: []string{}}).Validate(); err == nil {
		t.Error("empty systems list accepted")
	}
	err := (Overrides{Systems: []string{"Flink"}}).Validate()
	if err == nil {
		t.Error("unknown engine name accepted")
	}
	if !errors.Is(err, engine.ErrUnsupported) {
		t.Errorf("unknown engine error %v should wrap ErrUnsupported", err)
	}
	o := Overrides{Systems: []string{"Dask"}}
	if got := o.Label(); got != "systems=Dask" {
		t.Errorf("label = %q", got)
	}
	if o.IsZero() {
		t.Error("systems override reported as zero")
	}
}

// TestRunClusterMemoryFloor pins the hoisted cluster-sizing rule at the
// point of use: the end-to-end cluster's per-node memory is
// max(default, engine.MemFloor). Before the hoist the 10×/nodes floor
// was duplicated in neuroEndToEnd and astroEndToEnd; this locks the
// single shared path.
func TestRunClusterMemoryFloor(t *testing.T) {
	def := newCluster(4).Config().MemPerNode

	// A small input: the floor is below the default and must not lower it.
	small := runCluster(4, def/100)
	if got := small.Config().MemPerNode; got != def {
		t.Errorf("small input: MemPerNode = %d, want default %d", got, def)
	}

	// A large input: the floor takes over at exactly 10×input/nodes.
	input := def * 2 // floor = 10*2*def/4 = 5*def
	big := runCluster(4, input)
	if got, want := big.Config().MemPerNode, engine.MemFloor(input, 4); got != want {
		t.Errorf("large input: MemPerNode = %d, want floor %d", got, want)
	}
	if want := 5 * def; engine.MemFloor(input, 4) != want {
		t.Errorf("MemFloor(%d, 4) = %d, want %d", input, engine.MemFloor(input, 4), want)
	}
}
