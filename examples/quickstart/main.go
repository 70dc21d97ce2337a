// Quickstart: solve an SPD system with the asynchronous forward exact
// interpolation recovery (AFEIR) while a DUE destroys a page of the
// iterate mid-run. The solver detects the lost page through its fault
// bitmask, interpolates the exact replacement data from the solver's own
// redundancy relations, and converges at the fault-free rate.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
)

func main() {
	// A 2-D Poisson problem: the "hello world" of SPD systems.
	a := matgen.Poisson2D(64, 64)
	b := matgen.Ones(a.N)
	fmt.Printf("system: n=%d, nnz=%d\n", a.N, a.NNZ())

	cfg := core.Config{
		Method:      core.MethodAFEIR,
		Workers:     4,
		PageDoubles: 128,
		Tol:         1e-10,
	}
	cg, err := core.NewCG(a, b, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Schedule one DUE into a page of the iterate x at iteration 40 —
	// the hardware would raise SIGBUS; here the page's fault bit is set
	// and the content is lost.
	plan := &inject.Plan{
		Errors: []inject.PlannedError{
			{Vector: cg.Space().VectorByName("x"), Page: 7, AtIteration: 40},
		},
	}
	cfg.OnIteration = func(it int, rel float64) {
		plan.Tick(it)
		if it%50 == 0 {
			fmt.Printf("  iter %4d  relative residual %.3e\n", it, rel)
		}
	}
	cg, err = core.NewCG(a, b, cfg)
	if err != nil {
		log.Fatal(err)
	}
	plan.Errors[0].Vector = cg.Space().VectorByName("x")
	plan.Start()

	res, err := cg.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverged=%v in %d iterations (%v), true residual %.3e\n",
		res.Converged, res.Iterations, res.Elapsed.Round(time.Millisecond), res.RelResidual)
	fmt.Printf("faults seen: %d, pages recovered exactly: %d forward + %d inverse\n",
		res.Stats.FaultsSeen,
		res.Stats.RecoveredForward, res.Stats.RecoveredInverse)
	if res.Stats.Unrecovered > 0 {
		fmt.Printf("unrecovered pages: %d\n", res.Stats.Unrecovered)
	}
}
