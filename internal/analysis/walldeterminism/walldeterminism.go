// Package walldeterminism protects the property the whole
// reproduction stands on: simulated results are pure functions of
// their inputs. Virtual seconds, content-addressed result keys, and
// sweep IDs must be bit-identical across runs, machines, and
// parallelism — so the deterministic packages (internal/cluster,
// internal/core, internal/sweep, internal/vtime, internal/synth) may
// not read the wall clock, draw from process-global randomness, or
// emit output in map-iteration order.
//
// Three rules, non-test files only:
//
//   - time.Now / time.Since / time.Until are forbidden (wall time is
//     the scheduler's and the benchmark's business, injected from
//     outside);
//   - package-level math/rand and math/rand/v2 functions are forbidden
//     (they draw from the shared, unseeded source; rand.New with an
//     explicit seed is fine);
//   - a range over a map that appends to an outer slice or writes
//     output is flagged unless that slice is sorted afterwards in the
//     same function.
package walldeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imagebench/internal/analysis"
)

// Analyzer is the walldeterminism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "walldeterminism",
	Doc: "deterministic packages may not use wall time, process-global randomness, " +
		"or map-iteration-ordered output",
	Run: run,
}

// DetPackages are the path suffixes of packages whose outputs must be
// pure functions of their inputs.
var DetPackages = []string{
	"internal/cluster",
	"internal/core",
	"internal/sweep",
	"internal/vtime",
	"internal/synth",
}

// globalRand lists the package-level math/rand functions that draw
// from the shared source. rand.New, rand.NewSource, and methods on an
// explicit *rand.Rand are fine.
var globalRand = map[string]map[string]bool{
	"math/rand": set("Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64", "NormFloat64",
		"Perm", "Shuffle", "Read", "Seed"),
	"math/rand/v2": set("Int", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "N"),
}

var wallClock = set("Now", "Since", "Until")

// emitMethods are writer-shaped method names: calling one inside a
// map-range leaks iteration order into output.
var emitMethods = set("Write", "WriteString", "WriteByte", "WriteRune", "WriteTo", "Encode")

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func run(pass *analysis.Pass) error {
	if !pass.PkgMatches(DetPackages...) {
		return nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		if pass.IsTestFile(n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		}
		return true
	})
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if path == "time" && wallClock[name] {
		pass.Reportf(call.Pos(), "time.%s in a deterministic package: results must be pure functions of inputs — inject the clock from the caller (outside %s)", name, shortPkg(pass))
	}
	if fns, ok := globalRand[path]; ok && fns[name] && fn.Type().(*types.Signature).Recv() == nil {
		pass.Reportf(call.Pos(), "%s.%s draws from the process-global random source: use rand.New(rand.NewSource(seed)) so runs are reproducible", pathBase(path), name)
	}
}

// checkMapRange flags map iteration whose body emits ordered output.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	funcBody := analysis.EnclosingFunc(stack)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append to a slice declared outside the loop → order leaks
		// into the slice, unless it is sorted afterwards.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.ObjectOf(target)
				if obj == nil || insideNode(obj.Pos(), rs) {
					return true // per-iteration slice: harmless
				}
				if funcBody != nil && sortedLater(pass, funcBody, obj) {
					return true
				}
				pass.Reportf(call.Pos(), "append to %q inside a map range: iteration order is nondeterministic — collect and sort the keys first (or sort %q before use)", target.Name, target.Name)
				return true
			}
		}
		if fn := pass.Callee(call); fn != nil {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (fn.Name() == "Fprint" || fn.Name() == "Fprintf" || fn.Name() == "Fprintln" ||
				fn.Name() == "Print" || fn.Name() == "Printf" || fn.Name() == "Println") {
				pass.Reportf(call.Pos(), "fmt.%s inside a map range: output order is nondeterministic — iterate a sorted key slice instead", fn.Name())
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && emitMethods[fn.Name()] {
				pass.Reportf(call.Pos(), "%s inside a map range emits in nondeterministic order — iterate a sorted key slice instead", fn.Name())
			}
		}
		return true
	})
}

// sortedLater reports whether the function body contains a call into
// package sort or slices that mentions obj — the collect-then-sort
// idiom.
func sortedLater(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func insideNode(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

func shortPkg(pass *analysis.Pass) string {
	return pathBase(pass.Pkg.Path())
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
