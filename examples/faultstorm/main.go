// Faultstorm: a miniature Figure 4 — compare every recovery method on the
// thermal2 analogue (the paper's slowest-converging matrix) under
// increasing error-injection rates, with the exponential stream of §5.3
// on the work clock, fired from the solve's own tasks.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func main() {
	a := matgen.Thermal2Analogue(4096)
	b := matgen.Ones(a.N)
	fmt.Printf("thermal2 analogue: n=%d nnz=%d\n", a.N, a.NNZ())

	// One block cache for every run, filled before any is timed: a
	// stormed run's first loss would otherwise fill it inside Run.
	blocks := sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: 256}, true)
	blocks.PrefactorizeLenient()
	base := core.Config{Workers: 4, PageDoubles: 256, Tol: 1e-8, Blocks: blocks}

	// Ideal baseline: its page operations are the rate's unit, its time
	// the slowdown's.
	idealCfg := base
	idealCfg.Method = core.MethodIdeal
	ideal, err := core.NewCG(a, b, idealCfg)
	if err != nil {
		log.Fatal(err)
	}
	unit := &inject.Plan{}
	unit.Start()
	ideal.SetSite(unit.Site)
	iref, err := ideal.Run()
	if err != nil {
		log.Fatal(err)
	}
	tau := iref.Elapsed
	fmt.Printf("ideal: %d iterations, %d page operations in %v\n\n", iref.Iterations, unit.Work(), tau.Round(time.Millisecond))

	methods := []core.Method{core.MethodAFEIR, core.MethodFEIR, core.MethodLossy, core.MethodCheckpoint, core.MethodTrivial}
	rates := []float64{1, 5, 20}

	fmt.Printf("%-8s", "method")
	for _, r := range rates {
		fmt.Printf("%14s", fmt.Sprintf("rate %gx", r))
	}
	fmt.Println("   (slowdown vs ideal; F = did not converge)")
	for _, m := range methods {
		fmt.Printf("%-8s", m)
		for _, rate := range rates {
			cfg := base
			cfg.Method = m
			cfg.MaxIter = 40 * a.N
			if m == core.MethodCheckpoint {
				cfg.ExpectedMTBE = time.Duration(float64(tau) / rate) // Young/Daly is a model in time
				cfg.Disk = core.NewSimDisk(0)
			}
			cg, err := core.NewCG(a, b, cfg)
			if err != nil {
				log.Fatal(err)
			}
			storm := &inject.Plan{Stream: &inject.Stream{Targets: cg.DynamicVectors(), MeanWork: float64(unit.Work()) / rate, Seed: int64(rate)*7 + int64(m)}}
			storm.Start()
			cg.SetSite(storm.Site)
			res, err := cg.Run()
			if err != nil || !res.Converged {
				fmt.Printf("%14s", "F")
				continue
			}
			fmt.Printf("%13.1f%%", (res.Elapsed.Seconds()/tau.Seconds()-1)*100)
		}
		fmt.Println()
	}
	fmt.Println("\nAFEIR overlaps recovery with reductions: cheapest at low rates.")
	fmt.Println("FEIR pays critical-path recoveries but covers late errors: wins at high rates.")
}
