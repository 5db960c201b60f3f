package suite_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imagebench/internal/analysis/analysistest"
	"imagebench/internal/analysis/load"
	"imagebench/internal/analysis/suite"
)

// TestTreeIsClean runs every analyzer in the suite over every package
// of the module, type-checking each package once for all of them. A
// finding here is a real invariant violation (or a missing
// //lint:allow with its reason); fix the code, don't relax the
// analyzer.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	pkgs := modulePackages(t, root)
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages, expected the whole module; package walk broken?", len(pkgs))
	}
	cfg := &load.Config{ModulePath: "imagebench", ModuleDir: root}
	for _, f := range analysistest.Check(t, cfg, suite.All(), pkgs...) {
		t.Errorf("unexpected diagnostic: %s", f)
	}
}

// TestSeededViolations runs the suite through the same driver over a
// fixture tree seeded with exactly one violation per analyzer, and
// requires exactly those six findings: an analyzer dropped from
// suite.All, or one that stops firing, fails here while
// TestTreeIsClean stays green.
func TestSeededViolations(t *testing.T) {
	want := map[string]string{ // analyzer -> file:line of its violation
		"atomicwrite":     "store.go:6",
		"droppederr":      "handler.go:9",
		"enginedispatch":  "dispatch.go:4",
		"releasepair":     "pool.go:6",
		"spanend":         "trace.go:10",
		"walldeterminism": "clock.go:6",
	}
	var pkgs []string
	for _, p := range []string{"cluster", "daemon", "dispatch", "pool", "store", "trace"} {
		pkgs = append(pkgs, "seeded/internal/"+p)
	}
	for _, f := range analysistest.Check(t, analysistest.Fixtures(t, "testdata"), suite.All(), pkgs...) {
		if at := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line); want[f.Analyzer] != at {
			t.Errorf("unexpected diagnostic: %s", f)
		}
		delete(want, f.Analyzer)
	}
	for a, at := range want {
		t.Errorf("%s reported nothing at its seeded violation %s", a, at)
	}
}

// TestNoEngineDispatchWaiverOutsideAnalysis holds the line that the
// per-system step runners are bound by value in the engine
// registrations, so nothing outside the analyzer's own package (its
// canonical name table and its fixtures) has a reason to suppress
// enginedispatch. A new waiver is a new switch on a system name.
func TestNoEngineDispatchWaiverOutsideAnalysis(t *testing.T) {
	root := moduleRoot(t)
	own := filepath.Join(root, "internal", "analysis")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if path == own || strings.HasPrefix(info.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "lint:allow enginedispatch") {
				t.Errorf("%s:%d: enginedispatch waiver outside internal/analysis: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot returns the directory holding the module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected module root at %s: %v", root, err)
	}
	return root
}

// modulePackages walks the module for directories containing non-test
// Go files and returns their import paths.
func modulePackages(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	var pkgs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			pkgs = append(pkgs, "imagebench")
			return nil
		}
		pkgs = append(pkgs, "imagebench/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}
