// Package analysistest runs analyzers over packages type-checked from
// source. Check is the one driver: it loads each package once and runs
// every analyzer it is given over that load. Run wraps it for one
// analyzer's fixtures and checks the findings against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// top of the local framework.
//
// A fixture tree lives under <testdata>/src/<importpath>/*.go. A line
// expecting a diagnostic carries a trailing comment of the form
//
//	v := arena.Get(1, 1, 1) // want `never Put back`
//
// with one double- or back-quoted regexp per expected diagnostic on
// that line. Every diagnostic must match a want on its line and every
// want must be matched — extra or missing findings fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"imagebench/internal/analysis"
	"imagebench/internal/analysis/load"
)

// A Finding is one diagnostic and the analyzer that reported it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message) }

// Run checks analyzer a against the fixture packages at the given
// import paths under testdata/src.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	cfg := Fixtures(t, testdata)
	for _, path := range paths {
		if pkg, findings := check(t, cfg, []*analysis.Analyzer{a}, path); pkg != nil {
			checkWants(t, pkg, findings)
		}
	}
}

// Fixtures returns a loader for the fixture tree under testdata/src.
func Fixtures(t *testing.T, testdata string) *load.Config {
	t.Helper()
	return &load.Config{Dirs: scanSrcTree(t, filepath.Join(testdata, "src"))}
}

// Check type-checks each package at paths once through cfg, runs every
// analyzer over it, and returns the findings in package, then analyzer,
// order.
func Check(t *testing.T, cfg *load.Config, analyzers []*analysis.Analyzer, paths ...string) []Finding {
	t.Helper()
	var all []Finding
	for _, path := range paths {
		_, findings := check(t, cfg, analyzers, path)
		all = append(all, findings...)
	}
	return all
}

func check(t *testing.T, cfg *load.Config, analyzers []*analysis.Analyzer, path string) (*load.Package, []Finding) {
	t.Helper()
	pkg, err := cfg.Load(path)
	if err != nil {
		t.Errorf("load %s: %v", path, err)
		return nil, nil
	}
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			t.Errorf("%s over %s: %v", a.Name, path, err)
			return nil, nil
		}
		for _, d := range pass.Diagnostics() {
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
	}
	return pkg, findings
}

// want is one expectation parsed from a comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

func checkWants(t *testing.T, pkg *load.Package, findings []Finding) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg.Fset, c)...)
			}
		}
	}
	for _, d := range findings {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts the expectations from one comment.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*want {
	t.Helper()
	text := c.Text
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimSpace(text[idx+len("// want "):])
	var out []*want
	for rest != "" {
		var lit string
		switch rest[0] {
		case '"':
			end := strings.Index(rest[1:], `"`)
			if end < 0 {
				t.Errorf("%s: unterminated want string", pos)
				return out
			}
			raw := rest[:end+2]
			s, err := strconv.Unquote(raw)
			if err != nil {
				t.Errorf("%s: bad want string %s: %v", pos, raw, err)
				return out
			}
			lit, rest = s, strings.TrimSpace(rest[end+2:])
		case '`':
			end := strings.Index(rest[1:], "`")
			if end < 0 {
				t.Errorf("%s: unterminated want string", pos)
				return out
			}
			lit, rest = rest[1:end+1], strings.TrimSpace(rest[end+2:])
		default:
			t.Errorf("%s: want expects quoted regexps, got %q", pos, rest)
			return out
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", pos, lit, err)
			return out
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	return out
}

// scanSrcTree maps every directory under root that contains Go files
// to its slash-separated path relative to root.
func scanSrcTree(t *testing.T, root string) map[string]string {
	t.Helper()
	dirs := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(rel)] = dir
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", root, err)
	}
	return dirs
}
