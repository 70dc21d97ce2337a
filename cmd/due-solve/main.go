// Command due-solve solves a linear system from a Matrix Market file (or a
// built-in generator) with one of the resilient solvers, optionally
// injecting DUEs at a chosen rate, and reports convergence, recovery
// statistics and the per-state worker-time breakdown (Table 3). With
// -ranks N a cg solve runs on the rank-sharded substrate (§3.4) and the
// report adds per-rank recovery counts; the other solvers have no
// distributed variant and are refused by name.
//
// Usage:
//
//	due-solve -matrix system.mtx -method afeir -rate 2
//	due-solve -gen thermal2 -n 20000 -method feir -precond -rate 5
//	due-solve -gen poisson3d -n 32768 -solver gmres -method afeir -precond -rate 3 -workers 8
//	due-solve -gen poisson3d -n 32768 -method feir -precond -ranks 4 -rate 3
//	due-solve -gen poisson2d -n 4096 -method feir -abft -rate 10 -sdc 0.3
//
// -precond selects the block-Jacobi preconditioned variant of every
// solver, single-node or distributed; a solver without a preconditioned
// variant is rejected by the registry instead of silently running
// unpreconditioned. -abft enables the checksum-carrying kernels (silent
// bit flips become detections and then ordinary page recoveries), and -sdc
// makes the storm emit that fraction of its events as single-bit flips;
// the report then includes the SDC counters. The storm is fired by the
// solve's own tasks; the report's injected= count is how many losses it
// fired, next to the faults= count the solver saw.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

func main() {
	matrixPath := flag.String("matrix", "", "Matrix Market file (coordinate real)")
	gen := flag.String("gen", "", "built-in generator: one of the paper analogues, or poisson2d / poisson3d")
	n := flag.Int("n", 10000, "dimension for -gen workloads")
	method := flag.String("method", "afeir", "ideal | trivial | lossy | ckpt | feir | afeir")
	solverName := flag.String("solver", "cg", strings.Join(registry.Names(), " | "))
	precond := flag.Bool("precond", false, "use the block-Jacobi preconditioner (all solvers, and cg on -ranks)")
	ranks := flag.Int("ranks", 0, "run cg distributed across N ranks on the sharded substrate (0 = single-node)")
	rate := flag.Float64("rate", 0, "expected DUEs per ideal solve's page operations (0 = no injection)")
	sdc := flag.Float64("sdc", 0, "fraction of injected events that are silent single-bit flips instead of DUEs (0..1, needs -rate)")
	abft := flag.Bool("abft", false, "enable checksum (ABFT) silent-error coverage: detected flips become recoverable poisons (single-node cg, resilient methods)")
	tol := flag.Float64("tol", 1e-10, "relative residual tolerance")
	workers := flag.Int("workers", 8, "task-pool size (all solvers)")
	seed := flag.Int64("seed", 1, "injection seed")
	flag.Parse()

	a, b, err := loadSystem(*matrixPath, *gen, *n)
	if err != nil {
		fatalf("%v", err)
	}
	m, err := core.ParseMethod(*method)
	if err != nil {
		fatalf("%v", err)
	}
	// One process-wide pool: probe and main runs share it instead of
	// stacking two pools' workers onto the same cores.
	pool := taskrt.Shared(*workers)
	cfg := registry.Config{
		Config: core.Config{
			Method:     m,
			Workers:    *workers,
			Tol:        *tol,
			UsePrecond: *precond,
			ABFT:       *abft,
			RT:         pool,
		},
		Ranks: *ranks,
	}
	fmt.Printf("system: n=%d nnz=%d, method=%s solver=%s precond=%v workers=%d ranks=%d abft=%v\n",
		a.N, a.NNZ(), m, *solverName, *precond, *workers, *ranks, *abft)

	run, err := registry.New(*solverName, a, b, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	var storm *inject.Plan
	if *rate > 0 {
		// Count the page operations of an ideal probe run of the same
		// solver: the unit the rate is normalised to, like the paper's
		// MTBE (§5.3), without a stopwatch (DESIGN §12).
		probeCfg := cfg
		probeCfg.Method = core.MethodIdeal
		probeCfg.ABFT = false
		probe, err := registry.New(*solverName, a, b, probeCfg)
		if err != nil {
			fatalf("%v", err)
		}
		unit := &inject.Plan{}
		probe.Arm(unit)
		if _, err := probe.Run(); err != nil {
			fatalf("probe: %v", err)
		}
		mean := float64(unit.Work()) / *rate
		fmt.Printf("ideal solve %d page operations -> mean gap %.0f (rate %g)\n", unit.Work(), mean, *rate)
		// All fault domains share one page layout, so one stream drawing
		// uniformly over every protected (vector, page) pair covers
		// single-node and distributed runs alike.
		storm = &inject.Plan{Stream: &inject.Stream{MeanWork: mean, Seed: *seed, SDCFraction: *sdc}}
		run.Arm(storm)
	}
	sched := pool.Counters()
	res, err := run.Run()
	injected := 0
	if storm != nil {
		injected = storm.Fired()
	}
	report(res, err, injected, pool.Counters().Sub(sched))
	if run.RankStats != nil {
		reportRanks(run.RankStats())
	}
}

func report(res core.Result, err error, injected int, sched taskrt.Counters) {
	if err != nil {
		fatalf("solve: %v", err)
	}
	fmt.Printf("converged=%v iterations=%d elapsed=%v trueResidual=%.3e\n",
		res.Converged, res.Iterations, res.Elapsed.Round(time.Millisecond), res.RelResidual)
	s := res.Stats
	fmt.Printf("faults=%d injected=%d recovered: forward=%d inverse=%d coupled=%d qRecomputed=%d precondPartial=%d\n",
		s.FaultsSeen, injected, s.RecoveredForward, s.RecoveredInverse, s.RecoveredCoupled, s.RecomputedQ, s.PrecondPartialApplies)
	fmt.Printf("contributionsLost=%d unrecovered=%d lossyInterp=%d restarts=%d rollbacks=%d checkpoints=%d\n",
		s.ContributionsLost, s.Unrecovered, s.LossyInterpolations, s.Restarts, s.Rollbacks, s.CheckpointsWritten)
	if s.SDCInjected > 0 || s.SDCDetected > 0 {
		fmt.Printf("sdc: injected=%d detected=%d\n", s.SDCInjected, s.SDCDetected)
	}
	if len(res.WorkerTimes) > 0 {
		var total taskrt.StateTimes
		fmt.Printf("worker state times (useful / runtime / idle):\n")
		for w, st := range res.WorkerTimes {
			fmt.Printf("  w%-2d %10v %10v %10v\n", w,
				st.Useful.Round(time.Microsecond), st.Runtime.Round(time.Microsecond), st.Idle.Round(time.Microsecond))
			total.Useful += st.Useful
			total.Runtime += st.Runtime
			total.Idle += st.Idle
		}
		if tt := total.Total(); tt > 0 {
			fmt.Printf("  sum %10v %10v %10v  (useful %.1f%%)\n",
				total.Useful.Round(time.Microsecond), total.Runtime.Round(time.Microsecond),
				total.Idle.Round(time.Microsecond), 100*total.Useful.Seconds()/tt.Seconds())
		}
	}
	// Idle covers polling and sleeping alike; the counters tell them apart.
	fmt.Printf("scheduler: parks=%d wakes=%d steals=%d pollHits=%d  (%.3f parks/iteration)\n",
		sched.Parks, sched.Wakes, sched.Steals, sched.PollHits, float64(sched.Parks)/float64(max(res.Iterations, 1)))
}

// reportRanks prints the per-rank recovery counters of a distributed run
// — the rank-local blast radius accounting of §3.4.
func reportRanks(rs []core.Stats) {
	fmt.Printf("per-rank recovery (faults / forward / inverse / unrecovered):\n")
	for i, s := range rs {
		fmt.Printf("  rank%-2d %6d %8d %8d %12d\n",
			i, s.FaultsSeen, s.RecoveredForward, s.RecoveredInverse, s.Unrecovered)
	}
}

func loadSystem(path, gen string, n int) (*sparse.CSR, []float64, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		a, err := matgen.ReadMatrixMarket(f)
		if err != nil {
			return nil, nil, err
		}
		return a, matgen.Ones(a.N), nil
	}
	switch gen {
	case "poisson2d":
		side := 1
		for side*side < n {
			side++
		}
		a := matgen.Poisson2D(side, side)
		return a, matgen.Ones(a.N), nil
	case "poisson3d":
		side := 1
		for side*side*side < n {
			side++
		}
		a := matgen.Poisson3D27(side, side, side)
		return a, matgen.Ones(a.N), nil
	case "":
		return nil, nil, fmt.Errorf("provide -matrix or -gen (analogues: %s)", strings.Join(matgen.PaperMatrixNames, ", "))
	default:
		a, err := matgen.PaperMatrix(gen, n)
		if err != nil {
			return nil, nil, err
		}
		return a, matgen.Ones(a.N), nil
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
