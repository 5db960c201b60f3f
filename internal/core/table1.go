package core

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"imagebench/internal/engine"
)

// Table 1: lines of code per use case per system. The paper counted the
// Python/AQL/MyriaL the authors wrote per system; we count the Go of our
// per-engine pipeline implementations the same way (comments and blank
// lines excluded), which preserves the finding: systems that can reuse
// the reference code (Spark, Myria, Dask) need little per-system code,
// while SciDB and TensorFlow require rewrites — and some steps are simply
// not implementable there (NA). Which file implements which (use case,
// system) pair is registry data: each engine registration lists its own
// source files (Engine.SourceFiles), so a sixth engine appears in this
// table by registering, not by editing it.

func init() {
	Register(&Experiment{
		ID:      "table1",
		Ignores: allAxes,
		Title:   "Lines of code per implementation",
		Paper:   "Spark/Myria/Dask reuse the reference and add little glue; SciDB and TensorFlow require partial rewrites and cannot express all steps (NA).",
		Run:     runTable1,
		Check:   checkTable1,
	})
}

// referenceFiles maps use case → the shared reference implementation
// the per-system files are measured against.
var referenceFiles = map[string]string{
	engine.UseNeuro: "neuro/neuro.go",
	engine.UseAstro: "astro/astro.go",
}

// internalDir locates the repository's internal/ directory from this
// source file's compile-time path (experiments run from a checkout).
func internalDir() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("core: cannot locate source directory")
	}
	dir := filepath.Dir(filepath.Dir(file)) // …/internal
	if _, err := os.Stat(dir); err != nil {
		return "", fmt.Errorf("core: source tree not available: %w", err)
	}
	return dir, nil
}

// CountLoC counts non-blank, non-comment lines of a Go source file.
func CountLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "", strings.HasPrefix(line, "//"):
		case isInstrumentation(line):
			// Observability stage marks are harness plumbing, not the
			// per-system pipeline code the paper's LoC comparison measures.
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			n++
		}
	}
	return n, sc.Err()
}

// isInstrumentation reports whether a trimmed source line is a pure
// tracing statement (a cluster stage mark) rather than pipeline logic.
func isInstrumentation(line string) bool {
	return strings.HasSuffix(line, ")") && strings.Contains(line, ".MarkStage(")
}

func runTable1(_ context.Context, p Profile) (*Table, error) {
	engines, err := p.engines(engine.CapLoC)
	if err != nil {
		return nil, err
	}
	dir, err := internalDir()
	if err != nil {
		return nil, err
	}
	cols := append([]string{"Reference"}, engine.Names(engines)...)
	t := NewTable("Table 1: lines of Go per implementation", "LoC",
		[]string{engine.UseNeuro, engine.UseAstro}, cols)
	setLoC := func(useCase, col, rel string) error {
		n, err := CountLoC(filepath.Join(dir, rel))
		if err != nil {
			return err
		}
		t.Set(useCase, col, float64(n))
		return nil
	}
	for useCase, rel := range referenceFiles {
		if err := setLoC(useCase, "Reference", rel); err != nil {
			return nil, err
		}
	}
	for _, e := range engines {
		// Use cases absent from the engine's file map stay NaN — the
		// paper's NA cells.
		for useCase, rel := range e.SourceFiles() {
			if err := setLoC(useCase, e.Name(), rel); err != nil {
				return nil, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"NA = not implementable on that system (paper Table 1)",
		"SciDB/TensorFlow files implement only the steps the paper could express there")
	return t, nil
}

func checkTable1(t *Table) error {
	// Every implemented cell is positive; TensorFlow/Astronomy is NA.
	if !math.IsNaN(t.Get(engine.UseAstro, "TensorFlow")) {
		return fmt.Errorf("TensorFlow astronomy should be NA")
	}
	// The reference-reuse systems (the end-to-end neuro set) all have a
	// counted neuroscience implementation.
	for _, e := range engine.Supporting(engine.CapNeuroE2E) {
		if t.Get(engine.UseNeuro, e.Name()) <= 0 {
			return fmt.Errorf("%s neuroscience LoC missing", e.Name())
		}
	}
	return nil
}
