package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathAlloc enforces the zero-alloc discipline on //due:hotpath
// bodies: the prepared task graphs are built once and resubmitted every
// iteration, so anything the runtime might heap-allocate per execution
// (make, append, fmt, string concatenation, closures, map/slice
// literals, go statements) is a violation.
var hotpathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "//due:hotpath function bodies must not contain allocation-causing constructs",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(pkg *Package, report reportFunc) {
	for _, d := range pkg.Dirs.OfKind(DirHotpath) {
		if d.Node == nil {
			continue
		}
		// The annotation governs every function body in the attached
		// node's subtree: a FuncDecl, or a statement whose expression
		// builds a task from a closure.
		found := false
		ast.Inspect(d.Node, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					found = true
					checkHotBody(pkg, fn.Body, report)
				}
				return false
			case *ast.FuncLit:
				found = true
				checkHotBody(pkg, fn.Body, report)
				return false
			}
			return true
		})
		if !found {
			report(d.Node.Pos(), "//due:hotpath governs no function body")
		}
	}
}

// checkHotBody walks one steady-state function body. Nested closures
// are themselves a violation (closure creation allocates), so the walk
// stops at them after reporting.
func checkHotBody(pkg *Package, body *ast.BlockStmt, report reportFunc) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "closure creation allocates; hoist the func to prepare time")
			return false
		case *ast.GoStmt:
			report(x.Pos(), "go statement spawns a goroutine per execution; use the prepared task graph")
		case *ast.CallExpr:
			checkHotCall(pkg, x, report)
		case *ast.CompositeLit:
			checkHotComposite(info, x, report)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(info, x.X) {
				report(x.Pos(), "string concatenation allocates; format at prepare time")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringExpr(info, x.Lhs[0]) {
				report(x.Pos(), "string concatenation allocates; format at prepare time")
			}
		}
		return true
	})
}

func checkHotCall(pkg *Package, call *ast.CallExpr, report reportFunc) {
	info := pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if isBuiltin(info, fun, "make") {
			report(call.Pos(), "make allocates; size buffers at prepare time")
		}
		if isBuiltin(info, fun, "new") {
			report(call.Pos(), "new allocates; hoist to prepare time")
		}
		if isBuiltin(info, fun, "append") {
			report(call.Pos(), "append may grow and reallocate; pre-size at prepare time")
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && isPackage(info, id, "fmt") {
			report(call.Pos(), "fmt.%s allocates (interface boxing + formatting); format at prepare time", fun.Sel.Name)
		}
	}
	// Conversions between string and []byte copy the payload.
	if len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			to, from := tv.Type, typeOf(info, call.Args[0])
			if from != nil && isStringByteConv(to, from) {
				report(call.Pos(), "string/[]byte conversion copies; hoist to prepare time")
			}
		}
	}
}

func checkHotComposite(info *types.Info, lit *ast.CompositeLit, report reportFunc) {
	if t := typeOf(info, lit); t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			report(lit.Pos(), "map literal allocates; build the map at prepare time")
		case *types.Slice:
			report(lit.Pos(), "slice literal allocates; pre-size at prepare time")
		}
	}
}

// --- shared type-query helpers ---
//
// A type error is a tool failure, so no fallback guesses at what an
// unresolved expression or identifier might mean.

func typeOf(info *types.Info, e ast.Expr) types.Type {
	return info.Types[e].Type
}

// isBuiltin reports whether id resolves to the given builtin.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok && id.Name == name
}

// isPackage reports whether id names an imported package with the given
// path.
func isPackage(info *types.Info, id *ast.Ident, path string) bool {
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringByteConv(to, from types.Type) bool {
	return (isStringType(to) && isByteSlice(from)) || (isByteSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
