// Package analysis is a dependency-free re-implementation of the core
// of golang.org/x/tools/go/analysis, just large enough to host this
// repo's invariant checkers. The module deliberately has no external
// dependencies, so the vendored-in framework mirrors the upstream API
// shape (Analyzer, Pass, Diagnostic) closely enough that an analyzer
// written here ports to the real framework by changing one import.
//
// Beyond the upstream core it bakes in the repo's suppression
// convention: a diagnostic is dropped when the offending line, or the
// line directly above it, carries a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory — a bare "//lint:allow spanend" suppresses
// nothing, so every waiver in the tree explains itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //lint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by -help; its first
	// sentence states the invariant.
	Doc string

	// Run applies the analyzer to a package, reporting diagnostics
	// through pass.Report/Reportf. A non-nil error aborts the whole
	// run (reserve it for internal failures, not findings).
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	allow map[string]map[int]bool // filename -> line -> allowed
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a diagnostic unless an in-scope //lint:allow
// directive waives it.
func (p *Pass) Report(d Diagnostic) {
	if p.suppressed(d.Pos) {
		return
	}
	p.diags = append(p.diags, d)
}

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// IsTestFile reports whether the file containing pos is a _test.go
// file. Most analyzers here guard production invariants and skip test
// files (tests legitimately name engines, write temp files, and so
// on).
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathHasSuffix reports whether the package import path is path, or
// ends with "/"+suffix at a path-segment boundary. Analyzers match
// packages by suffix (e.g. "internal/volume") so the same rule applies
// to the real module and to testdata fixtures.
func PathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// PkgMatches reports whether the pass's package matches any of the
// given path suffixes.
func (p *Pass) PkgMatches(suffixes ...string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(p.Pkg.Path(), s) {
			return true
		}
	}
	return false
}

// Callee resolves the object a call expression invokes: a *types.Func
// for ordinary function and method calls, nil for indirect calls
// through function values and for conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// suppressed reports whether pos is covered by a //lint:allow
// directive for this analyzer.
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.allow == nil {
		p.allow = map[string]map[int]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, ok := parseAllow(c.Text)
					if !ok || name != p.Analyzer.Name {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					lines := p.allow[cp.Filename]
					if lines == nil {
						lines = map[int]bool{}
						p.allow[cp.Filename] = lines
					}
					// The directive covers its own line (trailing
					// comment) and the next line (comment above).
					lines[cp.Line] = true
					lines[cp.Line+1] = true
				}
			}
		}
	}
	dp := p.Fset.Position(pos)
	return p.allow[dp.Filename][dp.Line]
}

// parseAllow parses "//lint:allow <analyzer> <reason>" and returns the
// analyzer name. Directives without a reason are inert by design.
func parseAllow(comment string) (analyzer string, ok bool) {
	text, found := strings.CutPrefix(comment, "//lint:allow ")
	if !found {
		return "", false
	}
	fields := strings.Fields(text)
	if len(fields) < 2 { // name plus at least one word of reason
		return "", false
	}
	return fields[0], true
}
