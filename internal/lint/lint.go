// Package lint is due-lint: a static analysis suite for the invariants
// of this repository that no behavioural test can state. Built on
// go/parser, go/ast and go/types only — the module stays
// dependency-free.
//
// The three checks (DESIGN.md §9):
//
//	hotpath-alloc        //due:hotpath bodies contain no
//	                     allocation-causing constructs
//	priority-clamp       recovery tasks take their priority from the
//	                     overlap clamp, never raw Config.TaskPriority
//	                     or a hardcoded literal
//	no-wallclock-rand    no time.Now / math/rand in the bitwise-
//	                     reproducible kernel packages
//
// Violations are waivable per-site with //due:allow(<check>) <reason>;
// the directive grammar itself is enforced by the always-on
// due-directive check.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one violation, positioned for file:line:col output.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Result is the outcome of a lint run. Violations and tool failures
// are distinct: a violation means the tree breaks an invariant, a tool
// error means the analysis itself could not run (unparsable file,
// unresolvable types) and nothing may be concluded from the rest.
type Result struct {
	Diags    []Diagnostic
	ToolErrs []string
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package, report reportFunc)
}

type reportFunc func(pos token.Pos, format string, args ...any)

// Analyzers returns the full suite in stable order. The due-directive
// grammar check always runs and is not listed (nor waivable).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		hotpathAlloc,
		priorityClamp,
		noWallclockRand,
	}
}

// Config selects what to lint.
type Config struct {
	Dir      string   // working directory; its module is analyzed
	Patterns []string // package patterns, default ["./..."]
	Checks   []string // subset of analyzer names; empty = all
}

// Main runs the suite and returns diagnostics sorted by position.
// A non-nil error is a tool failure (as are Result.ToolErrs entries).
func Main(cfg Config) (*Result, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	l, err := newLoader(cfg.Dir, "")
	if err != nil {
		return nil, err
	}
	dirs, err := l.expandPatterns(cfg.Dir, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var targets []*Package
	for _, dir := range dirs {
		ipath, err := l.importPathFor(dir)
		if err != nil {
			res.ToolErrs = append(res.ToolErrs, err.Error())
			continue
		}
		p, err := l.loadDir(dir, ipath)
		if err != nil {
			res.ToolErrs = append(res.ToolErrs, fmt.Sprintf("%s: %v", ipath, err))
			continue
		}
		targets = append(targets, p)
	}
	runSuite(l, targets, cfg.Checks, res)
	return res, nil
}

// runSuite analyzes the target packages with the selected checks,
// applying waivers and enforcing the directive grammar.
func runSuite(l *loader, targets []*Package, checks []string, res *Result) {
	enabled := make(map[string]bool)
	for _, c := range checks {
		enabled[c] = true
	}
	active := func(name string) bool { return len(enabled) == 0 || enabled[name] }

	for _, pkg := range targets {
		for _, e := range pkg.TypeErrs {
			res.ToolErrs = append(res.ToolErrs, e)
		}
		var raw []Diagnostic
		for _, a := range Analyzers() {
			if !active(a.Name) {
				continue
			}
			name := a.Name
			a.Run(pkg, func(pos token.Pos, format string, args ...any) {
				raw = append(raw, Diagnostic{
					Pos:     l.fset.Position(pos),
					Check:   name,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
		res.Diags = append(res.Diags, applyWaivers(l.fset, pkg, raw)...)
		res.Diags = append(res.Diags, checkDirectives(l.fset, pkg, active)...)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	sort.Strings(res.ToolErrs)
}

// applyWaivers drops diagnostics covered by a matching
// //due:allow(check) directive and marks those waivers used.
func applyWaivers(fset *token.FileSet, pkg *Package, raw []Diagnostic) []Diagnostic {
	waivers := pkg.Dirs.OfKind(DirAllow)
	var kept []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, w := range waivers {
			if w.Check != d.Check || w.Reason == "" {
				continue
			}
			// Re-derive the token.Pos-comparable position from the
			// recorded file:line: waiver coverage was computed on the
			// node span, so compare by position fields.
			if coversPosition(fset, w, d.Pos) {
				w.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

func coversPosition(fset *token.FileSet, w *Directive, pos token.Position) bool {
	if w.Node != nil {
		start, end := fset.Position(w.Node.Pos()), fset.Position(w.Node.End())
		if pos.Filename == start.Filename &&
			(pos.Line > start.Line || (pos.Line == start.Line && pos.Column >= start.Column)) &&
			(pos.Line < end.Line || (pos.Line == end.Line && pos.Column <= end.Column)) {
			return true
		}
	}
	wp := fset.Position(w.Pos)
	return wp.Filename == pos.Filename && wp.Line == pos.Line
}

// knownChecks for waiver validation.
func knownChecks() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// checkDirectives enforces the grammar: no unknown directives, every
// waiver names a known check and carries a reason, every directive
// attaches to a node, and every active waiver suppressed something.
func checkDirectives(fset *token.FileSet, pkg *Package, active func(string) bool) []Diagnostic {
	known := knownChecks()
	var out []Diagnostic
	emit := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     fset.Position(pos),
			Check:   "due-directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	// Diagnostics land on the governed node when one exists — the comment
	// itself holds the directive text, so pointing at it would be
	// redundant (and unmarkable in fixtures).
	at := func(d *Directive) token.Pos {
		if d.Node != nil {
			return d.Node.Pos()
		}
		return d.Pos
	}
	for _, d := range pkg.Dirs.All {
		switch d.Kind {
		case DirUnknown:
			emit(at(d), "unknown //due: directive %q (known: hotpath, recovery, allow(<check>) <reason>)", d.Raw)
			continue
		case DirAllow:
			if !known[d.Check] {
				emit(at(d), "waiver names unknown check %q (known: %s)", d.Check, strings.Join(checkNames(), ", "))
				continue
			}
			if d.Reason == "" {
				emit(at(d), "waiver for %q has no reason — the justification is mandatory", d.Check)
				continue
			}
			if d.Node == nil {
				emit(d.Pos, "waiver for %q attaches to no statement or declaration", d.Check)
				continue
			}
			if !d.used && active(d.Check) {
				emit(at(d), "unused waiver: %q reports nothing here — remove it", d.Check)
			}
		default:
			if d.Node == nil {
				emit(d.Pos, "directive %q attaches to no statement or declaration", d.Raw)
			}
		}
	}
	return out
}

func checkNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// pathUnder reports whether the import path is, or lies under, a
// package whose path ends with seg (e.g. "internal/shard") — suffix
// matching so fixture trees scope the same way the real module does.
func pathUnder(path, seg string) bool {
	return path == seg || strings.HasSuffix(path, "/"+seg) ||
		strings.Contains(path, "/"+seg+"/")
}
