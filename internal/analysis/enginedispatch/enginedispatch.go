// Package enginedispatch enforces the Engine API contract from PR 5:
// the experiment harness derives its system sets from the engine
// registry, never from hard-coded name lists or switch-on-system-name
// blocks. It is the type-checked replacement for the old regex guard
// test in internal/core — and unlike the regex it sees multi-line
// literals, survives file moves, and covers the whole tree.
//
// Three shapes of stringly-typed dispatch are flagged:
//
//   - a switch whose tag is a system-name variable (sys, system,
//     engineName, …) of string type, or whose cases enumerate two or
//     more engine names;
//   - a []string (or array) literal containing two or more engine
//     names — one name is a shape-check assertion, a set is dispatch;
//   - a map literal with two or more engine-name keys.
//
// Legitimate single-engine references (t.Get("Spark", …) encoding a
// paper finding) are untouched. A rare justified set — e.g. a test
// fixture spelling the paper's legend order — is waived with
// //lint:allow enginedispatch <reason>.
package enginedispatch

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"imagebench/internal/analysis"
)

// Analyzer is the enginedispatch analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "enginedispatch",
	Doc: "forbid stringly-typed engine dispatch: switches over system names and " +
		"engine-name list/map literals must be derived from the engine registry, " +
		"so a new engine is one adapter file instead of edits wherever engines are listed",
	Run: run,
}

// engineBase is the set of registered engine display names. Variant
// rows append -1, -2, or -incremental (SciDB's ingest and coadd
// variants).
//
//lint:allow enginedispatch this map IS the canonical name table the analyzer matches against
var engineBase = map[string]bool{
	"Spark":      true,
	"Myria":      true,
	"Dask":       true,
	"SciDB":      true,
	"TensorFlow": true,
}

// sysVar matches identifiers conventionally holding a system name.
var sysVar = regexp.MustCompile(`(?i)^(sys|system|engine)(name|variant)?$`)

// isEngineName reports whether the string constant names an engine or
// an engine variant.
func isEngineName(s string) bool {
	for _, suffix := range []string{"-1", "-2", "-incremental"} {
		s = strings.TrimSuffix(s, suffix)
	}
	return engineBase[s]
}

func run(pass *analysis.Pass) error {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SwitchStmt:
			if pass.IsTestFile(n.Pos()) {
				return true
			}
			checkSwitch(pass, n)
		case *ast.CompositeLit:
			if pass.IsTestFile(n.Pos()) {
				return true
			}
			checkCompositeLit(pass, n)
		}
		return true
	})
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if tag := tagIdent(sw.Tag); tag != nil && sysVar.MatchString(tag.Name) && isString(pass, sw.Tag) {
		pass.Reportf(sw.Pos(), "switch over system-name variable %q: dispatch on engine names belongs in the registry (engine.Lookup/engine.Supporting)", tag.Name)
		return
	}
	names := map[string]bool{}
	var firstPos token.Pos
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if s, ok := stringConst(pass, e); ok && isEngineName(s) {
				if firstPos == token.NoPos {
					firstPos = e.Pos()
				}
				names[s] = true
			}
		}
	}
	if len(names) >= 2 {
		pass.Reportf(sw.Pos(), "switch dispatches over %d engine names: derive behavior from the engine registry (engine.Lookup/engine.Supporting) instead", len(names))
	}
}

func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		if !elemIsString(u) {
			return
		}
		names := map[string]bool{}
		for _, e := range lit.Elts {
			if s, ok := stringConst(pass, e); ok && isEngineName(s) {
				names[s] = true
			}
		}
		if len(names) >= 2 {
			pass.Reportf(lit.Pos(), "string-list literal enumerates %d engine names: the engine set must come from the registry (engine.All/engine.Supporting)", len(names))
		}
	case *types.Map:
		if !isBasicString(u.Key()) {
			return
		}
		names := map[string]bool{}
		for _, e := range lit.Elts {
			kv, ok := e.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if s, ok := stringConst(pass, kv.Key); ok && isEngineName(s) {
				names[s] = true
			}
		}
		if len(names) >= 2 {
			pass.Reportf(lit.Pos(), "map literal keyed by %d engine names: per-engine behavior belongs in the engine adapters, not a dispatch table", len(names))
		}
	}
}

func tagIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case nil:
		return nil
	}
	return nil
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	return t != nil && isBasicString(t)
}

func isBasicString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func elemIsString(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return isBasicString(t.Elem())
	case *types.Array:
		return isBasicString(t.Elem())
	}
	return false
}

// stringConst returns the constant string value of e, if it has one.
func stringConst(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
