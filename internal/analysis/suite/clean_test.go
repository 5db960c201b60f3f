package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imagebench/internal/analysis/analysistest"
	"imagebench/internal/analysis/suite"
)

// TestTreeIsClean runs every analyzer in the suite over every package
// of the module — the in-process twin of CI's
// `go vet -vettool=imagebench-vet ./...` gate. A finding here is a
// real invariant violation (or a missing //lint:allow with its
// reason); fix the code, don't relax the analyzer.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := modulePackages(t)
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages, expected the whole module; package walk broken?", len(pkgs))
	}
	for _, a := range suite.All() {
		analysistest.RunClean(t, a, false, pkgs...)
	}
}

// TestNoEngineDispatchWaiverOutsideAnalysis holds the line PR 13 drew:
// the per-system step runners are bound by value in the engine
// registrations, so nothing outside the analyzer's own package (its
// canonical name table and its fixtures) has a reason to suppress
// enginedispatch. A new waiver is a new switch on a system name.
func TestNoEngineDispatchWaiverOutsideAnalysis(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(root, "internal", "analysis")
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
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

// modulePackages walks the repo for directories containing non-test
// Go files and returns their import paths.
func modulePackages(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected module root at %s: %v", root, err)
	}
	seen := map[string]bool{}
	var pkgs []string
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
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
