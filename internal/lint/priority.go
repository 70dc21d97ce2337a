package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// priorityClamp protects the AFEIR discipline: recovery work must run
// strictly below every compute tier, so recovery task creation sites
// (annotated //due:recovery) must derive their priority from the
// overlap clamp — Config.OverlapPriority(), Engine.RecoveryPriority —
// never from raw Config.TaskPriority or a hardcoded negative literal.
var priorityClamp = &Analyzer{
	Name: "priority-clamp",
	Doc:  "recovery tasks take their priority from the overlap clamp, never raw Config.TaskPriority",
	Run:  runPriorityClamp,
}

// clampNames are the identifiers that prove the priority flowed through
// the clamp. OverlappedRecovery applies the clamp internally, so a
// recovery site delegating to it is compliant.
var clampNames = map[string]bool{
	"overlapPriority":    true,
	"OverlapPriority":    true,
	"RecoveryPriority":   true,
	"recoveryPriority":   true,
	"OverlappedRecovery": true,
}

func runPriorityClamp(pkg *Package, report reportFunc) {
	scoped := pathUnder(pkg.Path, "internal/core") || pathUnder(pkg.Path, "internal/engine") ||
		pathUnder(pkg.Path, "internal/shard") || pathUnder(pkg.Path, "internal/dist")
	for _, d := range pkg.Dirs.OfKind(DirRecovery) {
		if d.Node == nil {
			continue
		}
		usesRaw, usesClamp := token.NoPos, false
		ast.Inspect(d.Node, func(n ast.Node) bool {
			name, pos := identName(n)
			if name == "" {
				return true
			}
			if name == "TaskPriority" && usesRaw == token.NoPos {
				usesRaw = pos
			}
			if clampNames[name] {
				usesClamp = true
			}
			return true
		})
		if usesRaw != token.NoPos {
			report(usesRaw, "recovery site reads raw Config.TaskPriority; derive the priority from OverlapPriority() so recovery stays below the compute tier")
		} else if !usesClamp {
			// Report at the governed node, not the comment, so a stacked
			// //due:allow on the same node can waive it.
			report(d.Node.Pos(), "//due:recovery site never consults the overlap clamp (OverlapPriority / RecoveryPriority / OverlappedRecovery)")
		}
	}
	if !scoped {
		return
	}
	// Hardcoded literals defeat the clamp just as thoroughly as raw
	// TaskPriority: a TaskSpec{Priority: -1} pins recovery at a fixed
	// tier regardless of where the tenant's compute runs.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isTaskSpecLit(lit) {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Priority" {
					continue
				}
				if isNegativeIntLit(kv.Value) {
					report(kv.Value.Pos(), "hardcoded negative task priority; use the clamped Engine.RecoveryPriority so per-tenant tiers stay ordered")
				}
			}
			return true
		})
	}
}

func identName(n ast.Node) (string, token.Pos) {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name, x.Sel.Pos()
	case *ast.Ident:
		return x.Name, x.Pos()
	}
	return "", token.NoPos
}

func isTaskSpecLit(lit *ast.CompositeLit) bool {
	switch t := lit.Type.(type) {
	case *ast.Ident:
		return strings.HasSuffix(t.Name, "TaskSpec")
	case *ast.SelectorExpr:
		return strings.HasSuffix(t.Sel.Name, "TaskSpec")
	}
	return false
}

func isNegativeIntLit(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.SUB {
		return false
	}
	b, ok := u.X.(*ast.BasicLit)
	return ok && b.Kind == token.INT
}
