package lint

import (
	"go/ast"
	"strconv"
)

// noWallclockRand protects bitwise reproducibility of the kernel
// packages: the bitwise recovered-equals-fault-free tests and the
// fault-injection experiments both assume that running the same graph
// twice produces identical bits, so
// internal/sparse and internal/engine must not read the wall clock or a
// random source. Timing belongs in the experiment harness; randomness
// (fault injection schedules) is seeded and injected from outside.
var noWallclockRand = &Analyzer{
	Name: "no-wallclock-rand",
	Doc:  "no time.Now / math/rand inside the bitwise-reproducible kernel packages",
	Run:  runNoWallclockRand,
}

var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

func runNoWallclockRand(pkg *Package, report reportFunc) {
	if !pathUnder(pkg.Path, "internal/sparse") && !pathUnder(pkg.Path, "internal/engine") {
		return
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				report(imp.Pos(), "math/rand import in a reproducible kernel package; inject seeded randomness from the harness")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !isPackage(pkg.Info, id, "time") {
				return true
			}
			report(sel.Pos(), "time.%s in a reproducible kernel package; timing belongs in the experiment harness", sel.Sel.Name)
			return true
		})
	}
}
