// The //due: directive grammar. Directives are ordinary line comments
// and attach to the next declaration or statement (or to the one they
// trail on the same line):
//
//	//due:hotpath                  the function bodies below are
//	                               steady-state task bodies: no
//	                               allocation-causing constructs
//	//due:recovery                 the statement/function below creates
//	                               recovery tasks: priorities must come
//	                               from the overlap clamp, never raw
//	                               Config.TaskPriority
//	//due:allow(<check>) <reason>  waive exactly <check> for the node
//	                               below; the reason is mandatory
//
// Unknown directives, waivers without a reason, waivers naming an
// unknown check, unattached directives and waivers that suppress
// nothing are all violations themselves (check "due-directive") — the
// grammar is law too.
package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

type DirKind int

const (
	DirHotpath DirKind = iota
	DirRecovery
	DirAllow
	DirUnknown
)

// Directive is one parsed //due: comment with the node it governs.
type Directive struct {
	Kind   DirKind
	Raw    string
	Check  string // allow: the waived check name
	Reason string // allow: mandatory justification
	Pos    token.Pos
	Node   ast.Node // attached node; nil when nothing follows
	used   bool     // allow: suppressed at least one diagnostic
}

// Directives indexes every //due: comment of a package.
type Directives struct {
	All []*Directive
}

func (d *Directives) OfKind(k DirKind) []*Directive {
	var out []*Directive
	for _, dir := range d.All {
		if dir.Kind == k {
			out = append(out, dir)
		}
	}
	return out
}

// parseDirectives scans the comments of every file, classifies the
// //due: ones and attaches each to its governed node.
func parseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	ds := &Directives{}
	for _, f := range files {
		var fileDirs []*Directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//due:")
				if !ok {
					continue
				}
				d := &Directive{Raw: c.Text, Pos: c.Pos()}
				switch {
				case rest == "hotpath":
					d.Kind = DirHotpath
				case rest == "recovery":
					d.Kind = DirRecovery
				case strings.HasPrefix(rest, "allow("):
					d.Kind = DirAllow
					body := strings.TrimPrefix(rest, "allow(")
					if i := strings.Index(body, ")"); i >= 0 {
						d.Check = body[:i]
						d.Reason = strings.TrimSpace(body[i+1:])
					} else {
						d.Kind = DirUnknown
					}
				default:
					d.Kind = DirUnknown
				}
				fileDirs = append(fileDirs, d)
			}
		}
		if len(fileDirs) > 0 {
			attach(fset, f, fileDirs)
			ds.All = append(ds.All, fileDirs...)
		}
	}
	return ds
}

// attach binds each directive to the outermost statement, declaration,
// spec or field that either shares its line (trailing comment) or is
// the nearest one starting below it.
func attach(fset *token.FileSet, f *ast.File, dirs []*Directive) {
	type cand struct {
		node       ast.Node
		start, end token.Pos
		line       int
	}
	var cands []cand
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.TypeSpec, *ast.ValueSpec, *ast.Field:
			cands = append(cands, cand{n, n.Pos(), n.End(), fset.Position(n.Pos()).Line})
		}
		return true
	})
	for _, d := range dirs {
		dLine := fset.Position(d.Pos).Line
		var best *cand
		// Trailing: a node starting on the directive's own line, before
		// the comment. Outermost (largest extent) wins.
		for i := range cands {
			c := &cands[i]
			if c.line == dLine && c.start < d.Pos {
				if best == nil || (c.end-c.start) > (best.end-best.start) {
					best = c
				}
			}
		}
		if best == nil {
			// Leading: the nearest node starting strictly below.
			bestLine := 0
			for i := range cands {
				c := &cands[i]
				if c.line <= dLine {
					continue
				}
				if bestLine == 0 || c.line < bestLine {
					bestLine, best = c.line, c
				} else if c.line == bestLine && (c.end-c.start) > (best.end-best.start) {
					best = c
				}
			}
		}
		if best != nil {
			d.Node = best.node
		}
	}
}
