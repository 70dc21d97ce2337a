package lint

import (
	"go/ast"
	"go/token"
)

// reductionAccounting keeps Substrate.Reductions() honest. The counter
// is the communication metric a distributed solve reports (the
// benchmark's shard.reductions_per_iter), so every coordinator sum over
// rank partials must account a superstep:
//
//   - in internal/shard, any function calling SumAvailable (the
//     coordinator-side partial sum) must also increment the reductions
//     counter — same function, so the pairing is locally auditable;
//   - in internal/dist, calling SumAvailable directly is always a
//     violation: the transport layer must go through the Substrate
//     accounting sites (Dot, RankOpDot, ...) instead.
var reductionAccounting = &Analyzer{
	Name: "reduction-accounting",
	Doc:  "coordinator sums over rank partials must flow through the Substrate accounting sites",
	Run:  runReductionAccounting,
}

func runReductionAccounting(ctx *Context, pkg *Package, report reportFunc) {
	inShard := pathUnder(pkg.Path, "internal/shard")
	inDist := pathUnder(pkg.Path, "internal/dist")
	if !inShard && !inDist {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			sums := sumAvailableCalls(fn.Body)
			if len(sums) == 0 {
				return true
			}
			if inDist {
				for _, pos := range sums {
					report(pos, "coordinator sum bypasses the Substrate accounting sites; call the shard-level Dot/RankOpDot wrappers so Reductions() stays exact")
				}
				return true
			}
			if !incrementsReductions(fn.Body) {
				for _, pos := range sums {
					report(pos, "SumAvailable without a reductions++ in %s; Reductions() would drift from the true superstep count", fn.Name.Name)
				}
			}
			return true
		})
	}
}

// sumAvailableCalls collects the positions of every call whose callee
// is named SumAvailable (method or function — the partial-sum site).
func sumAvailableCalls(body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "SumAvailable" {
				out = append(out, call.Pos())
			}
		case *ast.Ident:
			if fun.Name == "SumAvailable" {
				out = append(out, call.Pos())
			}
		}
		return true
	})
	return out
}

// incrementsReductions detects `x.reductions++` / `reductions++` /
// `x.reductions += n` anywhere in the body.
func incrementsReductions(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IncDecStmt:
			if x.Tok == token.INC && namesReductions(x.X) {
				found = true
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && namesReductions(x.Lhs[0]) {
				found = true
			}
		case *ast.CallExpr:
			// atomic.AddInt64(&s.reductions, 1) counts too.
			for _, a := range x.Args {
				if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND && namesReductions(u.X) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func namesReductions(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "reductions"
	case *ast.SelectorExpr:
		return x.Sel.Name == "reductions"
	}
	return false
}
