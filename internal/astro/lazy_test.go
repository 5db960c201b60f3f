package astro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sync"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/fits"
	"imagebench/internal/lazy"
	"imagebench/internal/skymap"
	"imagebench/internal/spark"
	"imagebench/internal/vtime"
)

// One deferred patch stack, forced from eight goroutines at once as a
// co-add, calibrates and projects each exposure, merges each visit and
// co-adds the stack once, and gives every goroutine the bits CoaddPatch
// gives the pure path's projected stack.
func TestDeferredCoaddForcesOnceUnderConcurrency(t *testing.T) {
	w := smallWorkload(t, 4)
	g := w.Grid()
	var decoded []*skymap.Exposure
	for _, key := range w.Store.List("astro/fits/") {
		obj, _ := w.Store.Get(key)
		e, err := fits.DecodeStaged(obj)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, e)
	}
	touches := map[skymap.Patch]int{}
	var p skymap.Patch
	for _, e := range decoded {
		for _, q := range g.ExposureOverlaps(e) {
			if touches[q]++; touches[q] > touches[p] {
				p = q
			}
		}
	}
	var touching []*skymap.Exposure
	var pieces []*skymap.PatchExposure
	for _, e := range decoded {
		if slices.Contains(g.ExposureOverlaps(e), p) {
			touching = append(touching, e)
			pieces = append(pieces, g.Defer(preprocessOnRead(e), p))
		}
	}
	stack, err := skymap.Assemble(pieces, sortPatchExposures)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coaddOnRead(stack, ClipSigma, ClipIters)
	if err != nil {
		t.Fatal(err)
	}
	before := lazy.Computed()
	got := make([]*skymap.Coadd, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = co.value.Force(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// A calibration per exposure, a merge per visit, the coadd.
	if n, want := lazy.Computed()-before, uint64(len(touching)+len(stack)+1); n != want {
		t.Errorf("the co-add computed %d values, want %d", n, want)
	}

	var projected []*skymap.PatchExposure
	for _, e := range touching {
		projected = append(projected, g.Project(Preprocess(e), p))
	}
	sortPatchExposures(projected)
	pure, err := skymap.AssemblePatches(projected)
	if err != nil {
		t.Fatal(err)
	}
	want, err := skymap.CoaddPatch(pure, ClipSigma, ClipIters)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d got another coadd than goroutine 0", i)
		}
	}
	if len(stack) < 2 || !sameCoadd(got[0], want) {
		t.Errorf("a stack of %d visits co-adds to other bits than the pure path's", len(stack))
	}
}

// The Fig 12d Spark and Myria step runners time Step 3A and compute
// none of it: nothing reads what a runner's UDF returns, so both over
// fresh stacks compute no lazy value, a piece of a stack included.
func TestCoaddStepRunnersComputeNothing(t *testing.T) {
	w := smallWorkload(t, 4)
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(*Workload, *cluster.Cluster, *cost.Model, []*skymap.PatchExposure) (vtime.Duration, error)
	}{{"Spark", SparkCoadd}, {"Myria", MyriaCoadd}}
	before := lazy.Computed()
	for _, r := range runners {
		if d, err := r.run(w, testCluster(), cost.Default(), stacks); err != nil || d <= 0 {
			t.Fatalf("%s: %v after %v", r.name, err, d)
		}
	}
	if n := lazy.Computed() - before; n != 0 {
		t.Errorf("the co-addition step runners computed %d lazy values", n)
	}
}

// Step 2A's flatmaps size their output once: overlaps hands a record
// slice with room for one record per patch, for an exposure on 1 to 6
// patches, and Spark's and Myria's patch-project UDFs both take the
// records they return from it.
func TestPatchProjectAllocsOnce(t *testing.T) {
	g := skymap.Grid{PatchW: 10, PatchH: 10}
	for _, r := range []struct{ x0, y0, w, h, patches int }{
		{1, 1, 5, 5, 1}, {8, 0, 5, 5, 2}, {5, 5, 21, 5, 3}, {8, 8, 5, 5, 4}, {5, 5, 21, 10, 6},
	} {
		e := preprocessOnRead(skymap.NewExposure(1, 0, r.x0, r.y0, r.w, r.h))
		pts, out := overlaps[spark.Pair](g, e)
		for _, pt := range pts {
			out = append(out, spark.Pair{Key: VisitPatchKey(pt, 1), Value: g.Defer(e, pt)})
		}
		if len(pts) != r.patches || len(out) != cap(out) {
			t.Errorf("%d×%d at (%d,%d): %d patches, %d records in room for %d; want %d patches, full",
				r.w, r.h, r.x0, r.y0, len(pts), len(out), cap(out), r.patches)
		}
	}
	fset := token.NewFileSet()
	for _, file := range []string{"spark.go", "myria.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && fieldValue(lit, "Name") == `"patch-project"` {
				fn, _ := field(lit, "F").(*ast.FuncLit)
				found = fn != nil && returnsOverlapsSlice(fn)
				return false
			}
			return true
		})
		if !found {
			t.Errorf("%s: the patch-project UDF does not return the records overlaps sized", file)
		}
	}
}

func field(lit *ast.CompositeLit, name string) ast.Expr {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == name {
				return kv.Value
			}
		}
	}
	return nil
}

func fieldValue(lit *ast.CompositeLit, name string) string {
	if b, ok := field(lit, name).(*ast.BasicLit); ok {
		return b.Value
	}
	return ""
}

// returnsOverlapsSlice reports whether fn binds the record slice of an
// overlaps call and returns that slice.
func returnsOverlapsSlice(fn *ast.FuncLit) bool {
	var out string
	returned := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Lhs) == 2 {
				if ix, ok := call.Fun.(*ast.IndexExpr); ok {
					if id, ok := ix.X.(*ast.Ident); ok && id.Name == "overlaps" {
						out = n.Lhs[1].(*ast.Ident).Name
					}
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 1 {
				if id, ok := n.Results[0].(*ast.Ident); ok && out != "" && id.Name == out {
					returned = true
				}
			}
		}
		return true
	})
	return returned
}
