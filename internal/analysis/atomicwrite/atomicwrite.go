// Package atomicwrite enforces the crash-safety contract around
// artifacts, journals and the result cache: files readers may observe
// must appear atomically, which in this repo means going through
// internal/fsatomic (whole files — sweep specs, artifacts, the compacted
// journal: fsatomic.WriteFile; incremental: fsatomic.Create/Write/Commit)
// or internal/jsonl (append-only logs: the journals' Append, the result
// cache's fsynced Commit). Direct os.WriteFile, os.Create, and
// os.Rename calls anywhere else can leave half-written artifacts behind
// a crash — the exact failure mode PR 2's journal and PR 8's
// ArtifactWriter exist to rule out.
//
// os.CreateTemp, os.MkdirAll, and friends are untouched; test files
// are exempt. A deliberate non-artifact write (if one ever exists) is
// waived with //lint:allow atomicwrite <reason>.
package atomicwrite

import (
	"go/ast"

	"imagebench/internal/analysis"
)

// Analyzer is the atomicwrite analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc: "forbid os.WriteFile/os.Create/os.Rename outside internal/fsatomic and " +
		"internal/jsonl: artifact, journal and result-log writes must be crash-safe",
	Run: run,
}

// exemptPkgs are the packages whose whole job is the raw file
// plumbing the rest of the tree must route through.
var exemptPkgs = []string{"internal/fsatomic", "internal/jsonl"}

// forbidden maps os functions to the fsatomic replacement named in
// the diagnostic.
var forbidden = map[string]string{
	"WriteFile": "fsatomic.WriteFile",
	"Create":    "fsatomic.Create (write via the returned File, then Commit)",
	"Rename":    "fsatomic.WriteFile or fsatomic.File, which own the temp+rename dance",
}

func run(pass *analysis.Pass) error {
	if pass.PkgMatches(exemptPkgs...) {
		return nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pass.IsTestFile(call.Pos()) {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if repl, bad := forbidden[fn.Name()]; bad {
			pass.Reportf(call.Pos(), "os.%s bypasses crash-safe artifact writes: use %s", fn.Name(), repl)
		}
		return true
	})
	return nil
}
