// Package load type-checks packages from source for the analyzer
// suite's tests. It resolves imports three ways, in order: an explicit
// import-path→directory map (testdata fixture trees), the enclosing
// module (imagebench/… paths map onto the repo checkout), and the
// standard library via go/importer's source importer. The module has
// no external dependencies, so those three cover everything — no
// go/packages, no network, no export data. One Config type-checks each
// package once, however many analyzers then run over it.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Config says where packages come from.
type Config struct {
	// Dirs maps import paths to directories, consulted first. The
	// analysistest runner fills it from a testdata/src tree.
	Dirs map[string]string
	// ModulePath and ModuleDir resolve module-internal imports:
	// ModulePath+"/x/y" loads from ModuleDir/x/y.
	ModulePath string
	ModuleDir  string

	fset     *token.FileSet
	once     sync.Once
	std      types.ImporterFrom
	pkgs     map[string]*Package
	checking map[string]bool
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// init tunes go/build's default context, which the source importer
// lists standard-library packages through.
func init() {
	// The source importer would otherwise try to run cgo for packages
	// like net; every package this module touches builds fine without
	// it.
	build.Default.CgoEnabled = false
	// Only non-test files are ever loaded, so listing a directory skips
	// _test.go files instead of reading each one's build constraints;
	// in the standard library that is a quarter of the load.
	build.Default.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var infos []fs.FileInfo
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				return nil, err
			}
			infos = append(infos, fi)
		}
		return infos, nil
	}
}

func (c *Config) init() {
	c.once.Do(func() {
		c.fset = token.NewFileSet()
		c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
		c.pkgs = map[string]*Package{}
		c.checking = map[string]bool{}
	})
}

// Load type-checks the package at importPath (its non-test files) and
// returns it. Results are cached per Config; a second Load of the same
// path is free.
func (c *Config) Load(importPath string) (*Package, error) {
	c.init()
	if p, ok := c.pkgs[importPath]; ok {
		return p, nil
	}
	if c.checking[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	dir, ok := c.dirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("cannot resolve import path %q", importPath)
	}
	c.checking[importPath] = true
	defer delete(c.checking, importPath)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("list %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			return c.importPkg(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, c.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors in %s: %v", importPath, typeErrs[0])
	}
	p := &Package{Path: importPath, Fset: c.fset, Files: files, Types: tpkg, Info: info}
	c.pkgs[importPath] = p
	return p, nil
}

func (c *Config) dirFor(importPath string) (string, bool) {
	if dir, ok := c.Dirs[importPath]; ok {
		return dir, true
	}
	if c.ModulePath != "" {
		if importPath == c.ModulePath {
			return c.ModuleDir, true
		}
		if rest, ok := strings.CutPrefix(importPath, c.ModulePath+"/"); ok {
			return filepath.Join(c.ModuleDir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

func (c *Config) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := c.dirFor(path); ok {
		p, err := c.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return c.std.ImportFrom(path, "", 0)
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
