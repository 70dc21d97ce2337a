// Package loading for due-lint: parse + type-check every target package
// with nothing but the standard library. go/importer's "source" compiler
// resolves stdlib imports from $GOROOT/src; module-internal import paths
// (which go/build cannot see without the module machinery) are resolved
// by mapping them onto directories under the module root and recursively
// type-checking those, with memoization. The result is full go/types
// information for every analyzed package — no golang.org/x/tools, no
// export data, no `go list` subprocesses.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package plus everything the
// analyzers need: syntax with comments, type info, and the parsed
// //due: directives.
type Package struct {
	Path  string // import path ("repro/internal/shard")
	Files []*ast.File
	TPkg  *types.Package
	Info  *types.Info
	Dirs  *Directives
	// TypeErrs holds type-checker errors. The tree is expected to
	// compile, so any entry is a tool failure, not a violation.
	TypeErrs []string
}

type loader struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// newLoader builds a loader rooted at the module containing dir (found
// by walking up to go.mod), or rooted at dir itself with the given
// module path when modPath is non-empty (the fixture-test mode).
func newLoader(dir, modPath string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if modPath != "" {
		l.modPath, l.modDir = modPath, dir
		return l, nil
	}
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l.modPath, l.modDir = path, root
	return l, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Import implements types.Importer: module-internal paths load from
// source under the module root, everything else goes to the stdlib
// source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("cgo is not supported")
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return p.TPkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) loadPath(ipath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(ipath, l.modPath), "/")
	return l.loadDir(filepath.Join(l.modDir, filepath.FromSlash(rel)), ipath)
}

// loadDir parses and type-checks the package in dir under import path
// ipath. Test files are excluded: the invariants bind production code,
// and test-only allocations or clocks are fine.
func (l *loader) loadDir(dir, ipath string) (*Package, error) {
	if p, ok := l.pkgs[ipath]; ok {
		return p, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	p := &Package{Path: ipath}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			p.TypeErrs = append(p.TypeErrs, err.Error())
		},
	}
	p.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	// Check never returns a nil package; errors are collected above so
	// analysis can proceed best-effort over whatever was resolved.
	p.TPkg, _ = conf.Check(ipath, l.fset, p.Files, p.Info)
	p.Dirs = parseDirectives(l.fset, p.Files)
	l.pkgs[ipath] = p
	return p, nil
}

// goFilesIn lists the non-test .go files of dir that build for the
// default build context, by go/build's own file matching (GOOS/GOARCH
// filename suffixes and //go:build lines).
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok && strings.HasSuffix(name, ".go") {
			names = append(names, name)
		}
	}
	return names, nil
}

// expandPatterns resolves the command-line patterns ("./...",
// "./internal/shard", "dir/...") into package directories under the
// module root. testdata, vendor and hidden directories are skipped.
func (l *loader) expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		names, err := goFilesIn(abs)
		if err != nil || len(names) == 0 {
			return nil // not a buildable package dir; walk callers skip it
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(cwd, strings.TrimSuffix(rest, "/"))
			if rest == "" || rest == "./" {
				root = cwd
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return add(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := add(filepath.Join(cwd, pat)); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.modDir)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}
