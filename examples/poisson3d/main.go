// Poisson3D: the paper's scaling workload (§5.5) at laptop scale — the
// HPCG-like 27-point stencil discretization of the 3-D Poisson equation,
// solved by the distributed resilient CG across goroutine "MPI ranks" with
// errors injected on several ranks, plus the modelled 64–1024-core
// speedup curves of Figure 5.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/matgen"
	"repro/internal/perfmodel"
	"repro/internal/shard"
)

func main() {
	const nx = 24 // 24³ = 13824 unknowns (the paper runs 512³ on 1024 cores)
	a := matgen.Poisson3D27(nx, nx, nx)
	b := matgen.Ones(a.N)
	fmt.Printf("27-point stencil: %d^3 = %d unknowns, %d nonzeros\n", nx, a.N, a.NNZ())

	const ranks = 4
	s, err := dist.NewCG(a, b, ranks, dist.Config{Method: core.MethodFEIR, PageDoubles: 256, Tol: 1e-10})
	if err != nil {
		log.Fatal(err)
	}
	s.SetInject(func(it int, ranks []*shard.Rank) {
		// Two DUEs on different ranks while the solve is in flight, each
		// targeting a page the rank owns.
		if it == 10 {
			ranks[1].Space.VectorByName("x").Poison(ranks[1].PLo + 1)
		}
		if it == 20 {
			ranks[3].Space.VectorByName("g").Poison(ranks[3].PLo + 1)
		}
	})
	res, _, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed FEIR on %d ranks: converged=%v iterations=%d (%v)\n",
		ranks, res.Converged, res.Iterations, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("true residual %.3e, faults=%d, exact recoveries: %d forward + %d inverse\n",
		res.RelResidual, res.Stats.FaultsSeen,
		res.Stats.RecoveredForward, res.Stats.RecoveredInverse)

	// The Figure 5 projection to MareNostrum scale.
	m := perfmodel.New()
	fmt.Printf("\nmodelled speedups for the 512^3 system (vs ideal on 64 cores):\n")
	fmt.Printf("%-8s", "cores")
	for _, c := range perfmodel.Fig5Cores {
		fmt.Printf("%8d", c)
	}
	fmt.Println()
	for _, curve := range m.Fig5() {
		if curve.Errors != 1 {
			continue
		}
		fmt.Printf("%-8s", curve.Method)
		for _, s := range curve.Speedup {
			fmt.Printf("%8.2f", s)
		}
		fmt.Println()
	}
	fmt.Printf("(1 error per run; ideal parallel efficiency at 1024 cores: %.1f%%)\n",
		m.ParallelEfficiency(1024)*100)
}
