package suite_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the functions and methods under internal/ that only
// tests reach and are kept on purpose, each with its reason. A name is
// its import path below imagebench/internal/, then its receiver type
// (for a method), then itself: "imaging.Conv3", "spark.Session.SpilledBytes",
// "analysis/analysistest.Run".
var testOnly = map[string]string{
	// Oracles and fixtures the tests compare the live code against.
	"imaging.Conv3":       "dense reference convolution SeparableConv3 is checked against",
	"tsv.Encode":          "reference TSV spelling the fast round trip is pinned to",
	"tsv.Decode":          "reference TSV parser the fast round trip is pinned to",
	"tsv.EncodeCSV":       "reference CSV spelling CSVLen is pinned to",
	"tsv.DecodeCSV":       "reference CSV parser: a parsed chunk is the decoded one",
	"fits.Decode":         "whole-file decoder DecodeStaged is checked against",
	"fits.DecodeTable":    "reads back the binary table the generator writes",
	"fits.CatalogSources": "reads back the source catalog the generator writes",
	"nifti.DecodeAuto":    "gzip-or-plain decoder the .nii.gz fixtures are read with",
	"nifti.Encode4As":     "writes the integer-datatype fixtures the decoder is tested on",
	"astro.LoadExposures": "fixture loader; lives in a file table1 counts",
	// Observers and fault seams of live code.
	"cluster.MemTracker.Capacity":  "observer of the live memory tracker",
	"cluster.MemTracker.Free":      "observer of the live memory tracker",
	"cluster.MemTracker.HighWater": "observer of the live memory tracker",
	"cluster.MemTracker.Used":      "observer of the live memory tracker",
	"spark.Session.SpilledBytes":   "observer of the live spill path",
	"dask.Session.FusedTasks":      "observer of the live fusion pass",
	"obs.Span.Attr":                "reader of recorded spans",
	"obs.Span.Attrs":               "reader of recorded spans",
	"obs.Span.Events":              "reader of recorded spans",
	"obs.Span.Virtual":             "reader of recorded spans",
	"obs.Tracer.SetClock":          "seam: tests pin the wall clock for golden traces",
	"vtime.GapTimeline.Intervals":  "observer of the live gap timeline",
	"daemon.Local.Kill":            "fault seam: kills a local worker in federation tests",
	"lazy.Computed":                "observer of the live deferred values: how many were forced",
	"fan.Busy":                     "observer of the live fan-out: goroutines counted now",
	"fan.Helpers":                  "observer of the live fan-out: how many helpers were started",
	// Declared in files table1 counts, which stay byte-identical.
	"astro.ParsePatchKey":                          "in astro/astro.go, counted by table1",
	"astro.CreatePatches":                          "in astro/astro.go, counted by table1",
	"astro.RunSciDBCoadd":                          "in astro/scidb.go, counted by table1",
	"astro.Workload.LargestIntermediateModelBytes": "in astro/astro.go, counted by table1",
	"neuro.Workload.LargestIntermediateModelBytes": "in neuro/neuro.go, counted by table1",
	// Test drivers.
	"analysis/analysistest.Run":   "the analyzer fixture driver",
	"analysis/analysistest.Check": "the analyzer driver TestTreeIsClean runs",
	"analysis/suite.All":          "the analyzer list TestTreeIsClean runs",
}

// TestNothingOnlyTestsReach fails on every function or method declared
// in a non-test file under internal/ that no non-test file of the
// module references, unless testOnly keeps it with a reason, and on
// every testOnly entry that is no longer such a function. Code that
// only its own tests call is not part of the program: delete it with
// those tests. A reference from inside the function's own body does not
// count, and a method that implements an interface method (the
// interface named or anonymous, declared in the module or at package
// level in the standard library) is reached through the interface.
func TestNothingOnlyTestsReach(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cfg, root, paths := loadModule(t)
	internal := filepath.Join(root, "internal") + string(filepath.Separator)

	type decl struct {
		name string
		fn   *ast.FuncDecl
	}
	decls := map[*types.Func]decl{}
	uses := map[*types.Func][]*ast.Ident{}
	ifaces := interfaceMethods{
		seen:     map[types.Type]bool{},
		packages: map[*types.Package]bool{},
		sigs:     map[string][]*types.Signature{},
	}
	for _, path := range paths {
		pkg, err := cfg.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id)
			}
		}
		for _, tv := range pkg.Info.Types {
			ifaces.add(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				ifaces.add(obj.Type())
			}
		}
		for _, imp := range pkg.Types.Imports() {
			ifaces.addPackage(imp)
		}
		for _, f := range pkg.Files {
			if !strings.HasPrefix(pkg.Fset.Position(f.Pos()).Filename, internal) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				decls[fn] = decl{name: declName(fn), fn: fd}
			}
		}
	}

	var unreached []string
	for fn, d := range decls {
		if d.fn.Recv != nil && ifaces.implemented(fn) {
			continue
		}
		reached := false
		for _, id := range uses[fn] {
			if id.Pos() < d.fn.Pos() || id.Pos() >= d.fn.End() {
				reached = true
				break
			}
		}
		if !reached {
			unreached = append(unreached, d.name)
		}
	}
	sort.Strings(unreached)
	kept := map[string]bool{}
	for _, name := range unreached {
		if _, ok := testOnly[name]; ok {
			kept[name] = true
			continue
		}
		t.Errorf("%s: only tests reach it; delete it with its tests, or keep it in testOnly with a reason", name)
	}
	for name := range testOnly {
		if !kept[name] {
			t.Errorf("testOnly keeps %s, which is gone or reached from non-test code; drop the entry", name)
		}
	}
}

// recvName is the name of a method's receiver type, without pointer or
// type arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// interfaceMethods collects the methods of every interface type it is
// shown, by name, so a concrete method can be matched against them.
type interfaceMethods struct {
	seen     map[types.Type]bool
	packages map[*types.Package]bool
	sigs     map[string][]*types.Signature
}

// implemented reports whether some collected interface has a method of
// fn's name and signature.
func (m *interfaceMethods) implemented(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for _, s := range m.sigs[fn.Name()] {
		if types.Identical(s, sig) {
			return true
		}
	}
	return false
}

// addPackage collects the interfaces reachable from the package-level
// declarations of pkg and of every package it imports.
func (m *interfaceMethods) addPackage(pkg *types.Package) {
	if m.packages[pkg] {
		return
	}
	m.packages[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		m.add(scope.Lookup(name).Type())
	}
	for _, imp := range pkg.Imports() {
		m.addPackage(imp)
	}
}

// add collects every interface type t is or mentions.
func (m *interfaceMethods) add(t types.Type) {
	if t == nil || m.seen[t] {
		return
	}
	m.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		for i := 0; i < t.NumMethods(); i++ {
			m.add(t.Method(i).Type())
		}
		m.add(t.Underlying())
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			f := t.Method(i)
			m.sigs[f.Name()] = append(m.sigs[f.Name()], f.Type().(*types.Signature))
			m.add(f.Type())
		}
	case *types.Pointer:
		m.add(t.Elem())
	case *types.Slice:
		m.add(t.Elem())
	case *types.Array:
		m.add(t.Elem())
	case *types.Map:
		m.add(t.Key())
		m.add(t.Elem())
	case *types.Chan:
		m.add(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			m.add(t.Field(i).Type())
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				m.add(tup.At(i).Type())
			}
		}
	}
}
