// due-lint enforces the invariants of this repository that no
// behavioural test can state: zero-alloc hot paths, clamped recovery
// priorities and clock-free, random-free kernels. See DESIGN.md §9.
//
// Usage:
//
//	due-lint [-checks a,b,...] [packages]
//
// Exit codes:
//
//	0  clean
//	1  invariant violations found
//	2  tool failure (unparsable or untypeable package) — nothing may be
//	   concluded about the rest of the tree
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: due-lint [-checks a,b,...] [packages]\n\nChecks:\n")
		printChecks(os.Stderr)
		fmt.Fprintf(os.Stderr, "  %-22s %s\n", "due-directive", "//due: grammar itself (always on, not waivable)")
	}
	flag.Parse()

	if *list {
		printChecks(os.Stdout)
		return
	}

	cfg := lint.Config{Patterns: flag.Args()}
	var err error
	cfg.Dir, err = os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "due-lint: %v\n", err)
		os.Exit(2)
	}
	if *checks != "" {
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			if !knownCheck(c) {
				fmt.Fprintf(os.Stderr, "due-lint: unknown check %q (try -list)\n", c)
				os.Exit(2)
			}
			cfg.Checks = append(cfg.Checks, c)
		}
	}

	res, err := lint.Main(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "due-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Println(d.String())
	}
	// Tool failure dominates: a package that would not load may hide
	// any number of violations, so a "1" would overstate what we know.
	if len(res.ToolErrs) > 0 {
		for _, e := range res.ToolErrs {
			fmt.Fprintf(os.Stderr, "due-lint: tool failure: %s\n", e)
		}
		os.Exit(2)
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}

func knownCheck(name string) bool {
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func printChecks(w *os.File) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-22s %s\n", a.Name, a.Doc)
	}
}
