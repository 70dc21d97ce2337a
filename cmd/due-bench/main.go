// Command due-bench regenerates the paper's tables and figures from the
// reproduction: Table 2 and 3 (overheads and state breakdown), Figure 3
// (single-error convergence traces), Figure 4 (slowdown vs error rate —
// the CG panel, and a preconditioned panel sweeping PCG, PBiCGStab and
// PGMRES) and Figure 5 (64–1024-core scaling from the calibrated model,
// anchored by functional distributed runs with and without the
// preconditioner).
//
// Usage:
//
//	due-bench -exp table2 [-scale 20000] [-reps 5]
//	due-bench -exp fig4 -rates 1,10,50 -matrices thermal2,qa8fm
//	due-bench -exp fig4pcg -scale 900 -reps 1 -rates 1 -matrices qa8fm
//	due-bench -exp all
//
// Benching with GOMAXPROCS == 1 prints a loud warning: the FEIR/AFEIR
// overlap contrast needs idle cores. Performance is tracked by benchmark/
// (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// expNames are the paper's artefacts, in the order -exp all prints them.
var expNames = []string{"table2", "table3", "fig3", "fig4", "fig4pcg", "fig5"}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(expNames, ", ")+", all")
	scale := flag.Int("scale", 0, "matrix dimension for the workload analogues (default 4096)")
	reps := flag.Int("reps", 0, "repetitions per configuration (default 3; paper uses 50)")
	workers := flag.Int("workers", 0, "task-pool size (default 8, the paper's socket width)")
	pages := flag.Int("pages", 0, "page size in float64 values (default 512 = 4 KiB)")
	tol := flag.Float64("tol", 0, "convergence tolerance (default 1e-8)")
	rates := flag.String("rates", "", "comma-separated normalized error rates for fig4 (default 1,2,5,10,20,50)")
	matrices := flag.String("matrices", "", "comma-separated matrix subset (default all nine analogues)")
	seed := flag.Int64("seed", 1, "injection seed")
	flag.Parse()
	if *exp != "all" && !slices.Contains(expNames, *exp) {
		fatalf("unknown -exp %q (valid: %s, all)", *exp, strings.Join(expNames, ", "))
	}

	// One degraded-run warning per invocation, whatever -exp runs:
	// the single-core caveat applies to every timing number we print.
	warnDegraded()

	opts := experiments.Options{
		Scale:       *scale,
		Reps:        *reps,
		Workers:     *workers,
		PageDoubles: *pages,
		Tol:         *tol,
		Seed:        *seed,
	}
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fatalf("bad -rates entry %q: %v", f, err)
			}
			opts.Rates = append(opts.Rates, v)
		}
	}
	if *matrices != "" {
		opts.Matrices = strings.Split(*matrices, ",")
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fatalf("%s: %v", name, err)
		}
	}

	run("table2", func() error {
		res, err := experiments.Table2(opts)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
	run("table3", func() error {
		res, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
	run("fig3", func() error {
		res, err := experiments.Fig3(opts)
		if err != nil {
			return err
		}
		fmt.Println(res)
		// Full traces as CSV on demand.
		if os.Getenv("DUE_BENCH_TRACES") != "" {
			for _, s := range res.Series {
				for _, p := range s.Points {
					fmt.Printf("trace,%s,%.6f,%.4f\n", s.Method, p.Time.Seconds(), p.LogRes)
				}
			}
		}
		return nil
	})
	run("fig4", func() error {
		res, err := experiments.Fig4(opts, false)
		if err != nil {
			return err
		}
		fmt.Println(res)
		printFig4Cells(res)
		return nil
	})
	run("fig4pcg", func() error {
		res, err := experiments.Fig4(opts, true)
		if err != nil {
			return err
		}
		fmt.Println(res)
		printFig4Cells(res)
		return nil
	})
	run("fig5", func() error {
		m := perfmodel.New()
		fmt.Println("Figure 5: speedup of the MPI+task resilient CGs (modelled, 512^3 27-pt stencil)")
		fmt.Printf("ideal parallel efficiency at 1024 cores: %.2f%% (paper: 80.17%%)\n",
			m.ParallelEfficiency(1024)*100)
		for _, errs := range []int{1, 2} {
			fmt.Printf("\n%d error(s) per run:\n%-10s", errs, "cores")
			for _, c := range perfmodel.Fig5Cores {
				fmt.Printf("%8d", c)
			}
			fmt.Println()
			for _, curve := range m.Fig5() {
				if curve.Errors != errs {
					continue
				}
				fmt.Printf("%-10s", curve.Method)
				for _, s := range curve.Speedup {
					fmt.Printf("%8.2f", s)
				}
				fmt.Println()
			}
		}
		fmt.Println("\nfunctional validation (goroutine ranks, 16^3 stencil, 2 injected errors):")
		for _, meth := range []core.Method{core.MethodFEIR, core.MethodLossy, core.MethodCheckpoint} {
			for _, precond := range []bool{false, true} {
				if precond && meth != core.MethodFEIR {
					continue // one preconditioned run
				}
				res, err := experiments.ValidateDistributed(meth, 4, 2, precond, opts)
				if err != nil {
					return err
				}
				fmt.Printf("  cg        %-6s precond=%-5v converged=%v iterations=%d residual=%.2e faults=%d\n",
					meth, precond, res.Converged, res.Iterations, res.RelResidual, res.Stats.FaultsSeen)
			}
		}
		return nil
	})
}

func printFig4Cells(res *experiments.Fig4Result) {
	fmt.Println("per-matrix cells (solver, matrix, rate, method, slowdown%, stddev, failures):")
	for _, c := range res.Cells {
		fmt.Printf("  %-9s %-14s %3dx %-8s %8.1f%% ±%5.1f%% %d\n",
			c.Solver, c.Matrix, c.Rate, c.Method, c.Slowdown*100, c.StdDev*100, c.Failures)
	}
}

// warnDegraded makes single-core runs impossible to mistake for
// regressions: with GOMAXPROCS == 1 the latency-hiding contrasts the
// tables and figures show (AFEIR's overlapped recovery vs FEIR, FEIR vs
// trivial) collapse to parity.
func warnDegraded() {
	if runtime.GOMAXPROCS(0) > 1 {
		return
	}
	fmt.Fprintln(os.Stderr, strings.Repeat("=", 72))
	fmt.Fprintln(os.Stderr, "WARNING: GOMAXPROCS == 1 — DEGRADED BENCH PROVENANCE")
	fmt.Fprintln(os.Stderr, "Overlapped recovery needs idle cores; on one core the method contrasts")
	fmt.Fprintln(os.Stderr, "collapse to parity. These numbers are NOT comparable to multi-core runs.")
	fmt.Fprintln(os.Stderr, strings.Repeat("=", 72))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
