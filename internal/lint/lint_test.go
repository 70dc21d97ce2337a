package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// wantRE extracts "// want \"regex\"" expectation comments from fixture
// sources. The regex is matched against "check: message".
var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads one testdata package under a synthetic import path
// (the path carries the scope, e.g. "fixture/internal/shard") and runs
// the suite over it.
func runFixture(t *testing.T, dir, ipath string, checks []string) (*Result, string) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(abs, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.loadDir(abs, ipath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(p.TypeErrs) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, p.TypeErrs)
	}
	res := &Result{}
	runSuite(l, []*Package{p}, checks, res)
	return res, abs
}

// checkFixture runs the suite and verifies the diagnostics against the
// fixture's want comments: every want matched, no diagnostic unclaimed.
func checkFixture(t *testing.T, dir, ipath string, checks []string) {
	t.Helper()
	res, abs := runFixture(t, dir, ipath, checks)

	var wants []*want
	ents, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(abs, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, m[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	for _, d := range res.Diags {
		text := fmt.Sprintf("%s: %s", d.Check, d.Message)
		claimed := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.hit = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) {
	checkFixture(t, "hotpath", "fixture/hot", nil)
}

func TestPriorityClampFixture(t *testing.T) {
	checkFixture(t, "priority", "fixture/internal/core", nil)
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, "wallclock", "fixture/internal/sparse", nil)
}

func TestDirectivesFixture(t *testing.T) {
	checkFixture(t, "directives", "fixture/dir", nil)
}

// TestWaiverFixture pins the waiver contract via want comments: the
// no-wallclock-rand violations are suppressed while the hotpath-alloc
// violation in the same function still fires.
func TestWaiverFixture(t *testing.T) {
	checkFixture(t, "waiver", "fixture/internal/sparse", nil)
}

// TestWaiverSuppressesOnlyNamedCheck runs the waiver fixture one check
// at a time: the waived check reports nothing (and the waiver counts as
// used), the unnamed check is untouched.
func TestWaiverSuppressesOnlyNamedCheck(t *testing.T) {
	res, _ := runFixture(t, "waiver", "fixture/internal/sparse", []string{"no-wallclock-rand"})
	for _, d := range res.Diags {
		t.Errorf("waived check still reports: %s", d)
	}

	res, _ = runFixture(t, "waiver", "fixture/internal/sparse", []string{"hotpath-alloc"})
	var hot int
	for _, d := range res.Diags {
		if d.Check != "hotpath-alloc" {
			t.Errorf("unexpected check %s: %s", d.Check, d)
			continue
		}
		hot++
	}
	if hot != 1 {
		t.Errorf("hotpath-alloc diagnostics = %d, want 1 (the waiver must not leak across checks)", hot)
	}
}

// TestUnattachedDirective pins that a directive with nothing below it is
// itself a violation.
func TestUnattachedDirective(t *testing.T) {
	res, _ := runFixture(t, "unattached", "fixture/un", nil)
	found := false
	for _, d := range res.Diags {
		if d.Check == "due-directive" && strings.Contains(d.Message, "attaches to no") {
			found = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !found {
		t.Error("unattached directive not reported")
	}
}

// TestLoaderPicksPlatformFiles pins the loader's file selection, which is
// go/build's: internal/sparse loads simd_amd64.go on amd64 and
// simd_other.go on every other architecture.
func TestLoaderPicksPlatformFiles(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	names, err := goFilesIn(filepath.Join(root, "internal", "sparse"))
	if err != nil {
		t.Fatal(err)
	}
	want, not := "simd_amd64.go", "simd_other.go"
	if runtime.GOARCH != "amd64" {
		want, not = not, want
	}
	if !slices.Contains(names, want) || slices.Contains(names, not) {
		t.Errorf("internal/sparse on %s loads %v; want %s and not %s", runtime.GOARCH, names, want, not)
	}
}
