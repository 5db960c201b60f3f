package suite_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// modelDefaults lists the declarations outside package cost that call
// cost.Default or fall back to it on a nil model, each with its reason.
// A declaration is named by its import path below imagebench/ (and
// internal/), then its receiver type (for a method), then itself.
var modelDefaults = map[string]string{
	"core.model": "the one resolution: every experiment runs on it and results.Key hashes it",
	// Nil fallbacks in the files table1 counts, which stay byte-identical.
	"neuro.RunTF":               "frozen by table1",
	"neuro.RunDask":             "frozen by table1",
	"neuro.RunSpark":            "frozen by table1",
	"neuro.RunMyria":            "frozen by table1",
	"neuro.RunSciDB":            "frozen by table1",
	"astro.RunDask":             "frozen by table1",
	"astro.RunSpark":            "frozen by table1",
	"astro.RunMyria":            "frozen by table1",
	"astro.runSciDBCoaddPhased": "frozen by table1",
	// Programs of their own, outside the experiments.
	"examples/myrial.main":     "an example chooses the model its program runs on",
	"examples/quickstart.main": "an example chooses the model its program runs on",
	"examples/tuning.main":     "an example chooses the model its program runs on",
	"benchmark.probePipelines": "the benchmark times engine runs outside the experiments",
}

// TestOneCostModel fails on every declaration outside package cost
// that calls cost.Default or compares a *cost.Model with nil, unless
// modelDefaults keeps it with a reason, and on every modelDefaults
// entry that does neither any more. A table's virtual seconds come from
// the model it ran on, and results.Key names only the one core
// resolves: a second resolution, or a default hidden behind a nil
// argument, is a model the key does not name.
func TestOneCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cfg, _, paths := loadModule(t)
	found := map[string]bool{}
	for _, path := range paths {
		if path == "imagebench/internal/cost" {
			continue // defines the model and its default
		}
		pkg, err := cfg.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		resolves := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				return funcName(pkg.Info.Uses, n.Fun) == "cost.Default"
			case *ast.BinaryExpr:
				return (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isModel(pkg.Info.TypeOf(n.X)) && isNil(pkg.Info, n.Y) || isModel(pkg.Info.TypeOf(n.Y)) && isNil(pkg.Info, n.X))
			}
			return false
		}
		prefix := strings.TrimPrefix(strings.TrimPrefix(path, "imagebench/"), "internal/") + "."
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var names []string
				var nodes []ast.Node
				switch d := d.(type) {
				case *ast.FuncDecl:
					names, nodes = []string{declName(pkg.Info.Defs[d.Name].(*types.Func))}, []ast.Node{d}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if vs, ok := s.(*ast.ValueSpec); ok {
							names, nodes = append(names, prefix+vs.Names[0].Name), append(nodes, vs)
						}
					}
				}
				for i, n := range nodes {
					name := strings.TrimPrefix(names[i], "imagebench/")
					ast.Inspect(n, func(n ast.Node) bool {
						if n != nil && !found[name] && resolves(n) {
							found[name] = true
							if _, ok := modelDefaults[name]; !ok {
								t.Errorf("%s: %s resolves its own cost model; take the caller's (core resolves it once), or keep %s in modelDefaults with a reason",
									pkg.Fset.Position(n.Pos()), name, name)
							}
						}
						return true
					})
				}
			}
		}
	}
	var stale []string
	for name := range modelDefaults {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("modelDefaults keeps %s, which resolves no cost model; drop the entry", name)
	}
}

// isModel reports whether t is *cost.Model.
func isModel(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "imagebench/internal/cost" && n.Obj().Name() == "Model"
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Nil)
	return ok
}
