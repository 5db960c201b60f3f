package suite_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// pixelKernels are the kernels of the paper's steps, named as
// TestNothingOnlyTestsReach names functions. A function listed here is
// a kernel itself, so its own body may call the others.
var pixelKernels = map[string]bool{
	"volume.Mean3":              true, // Step 1N: the mean,
	"volume.Mean3Into":          true,
	"imaging.MedianFilter3":     true, // the median filter
	"imaging.MedianFilter3Into": true,
	"imaging.OtsuMask":          true, // and the threshold
	"neuro.Segment":             true,
	"imaging.NLMeans3":          true, // Step 2N
	"imaging.NLMeans3Ctx":       true,
	"imaging.NLMeans3Stream":    true,
	"neuro.Denoise":             true,
	"imaging.GaussianSmooth3":   true, // TensorFlow's rewrite of Step 2N
	"dmri.FitFA":                true, // Step 3N
	"neuro.FitBlock":            true,
	"astro.Preprocess":          true, // Step 1A
	"skymap.CoaddPatch":         true, // Step 3A
	"skymap.NewCoaddState":      true,
	"astro.Detect":              true, // Step 4A
}

// onRead are the functions whose function-literal arguments run only
// when their value is read.
var onRead = map[string]bool{"lazy.Of": true, "neuro.over": true, "neuro.then": true}

// eagerKernels lists the functions in neuro and astro that run a pixel
// kernel when they are called, each with its reason.
var eagerKernels = map[string]string{
	"neuro.ReferenceSubject": "the streamed reference the engines are checked against",
	"astro.Reference":        "the reference the engines are checked against",
	"astro.CoaddAll":         "Step 3A of the reference",
	"neuro.RunSciDBAFL":      "test-only: the paper's AFL program for Step 1N, run against the reference",
	"neuro.RunMyriaL":        "test-only: the paper's MyriaL program (Figure 7), run against the reference",
	"astro.RunAFLCoadd":      "test-only: the paper's AFL coadd program, run against the reference",
}

// TestKernelsRunOnRead fails on every use of a pixel kernel in neuro or
// astro that does not sit in a function literal handed to lazy.Of, over
// or then, unless it is inside a kernel itself or a function
// eagerKernels keeps, and on every eagerKernels entry that uses no
// kernel eagerly any more. An engine model's UDF hands on a value
// computed when read: a kernel it ran eagerly would compute pixels no
// table reads (core.TestTablesForceNoPixel counts the deferred ones).
func TestKernelsRunOnRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cfg, _, _ := loadModule(t)
	eager, deferred := map[string]bool{}, 0
	for _, path := range []string{"imagebench/internal/neuro", "imagebench/internal/astro"} {
		pkg, err := cfg.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := declName(pkg.Info.Defs[fd.Name].(*types.Func))
				if pixelKernels[name] {
					continue
				}
				lits := map[*ast.FuncLit]bool{} // handed to onRead
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && onRead[funcName(pkg.Info.Uses, call.Fun)] {
						for _, arg := range call.Args {
							if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
								lits[lit] = true
							}
						}
					}
					return true
				})
				var stack []ast.Node
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					id, ok := n.(*ast.Ident)
					if !ok || !pixelKernels[funcName(pkg.Info.Uses, id)] {
						return true
					}
					for _, outer := range stack {
						if lit, ok := outer.(*ast.FuncLit); ok && lits[lit] {
							deferred++
							return true
						}
					}
					if _, ok := eagerKernels[name]; ok {
						eager[name] = true
						return true
					}
					t.Errorf("%s: %s runs %s eagerly; hand it to lazy.Of, over or then, or keep %s in eagerKernels with a reason",
						pkg.Fset.Position(id.Pos()), name, funcName(pkg.Info.Uses, id), name)
					return true
				})
			}
		}
	}
	if deferred < 10 {
		t.Errorf("found %d kernel uses on read; the walk is broken", deferred)
	}
	var stale []string
	for name := range eagerKernels {
		if !eager[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("eagerKernels keeps %s, which runs no kernel eagerly; drop the entry", name)
	}
}

// funcName is the name of the function e refers to, as
// TestNothingOnlyTestsReach names it, or "" when e names none.
func funcName(uses map[*ast.Ident]types.Object, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	fn, ok := uses[id].(*types.Func)
	if !ok {
		return ""
	}
	return declName(fn.Origin())
}

// declName names fn by its import path below imagebench/internal/, its
// receiver type for a method, and itself.
func declName(fn *types.Func) string {
	if fn.Pkg() == nil { // a method of the universe's error
		return fn.Name()
	}
	name := strings.TrimPrefix(fn.Pkg().Path(), "imagebench/internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name += recvName(recv.Type()) + "."
	}
	return name + fn.Name()
}
