package dist

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
)

// TestSteadyStateIterationsDoNotAllocate pins the hot-path property every
// shipped CG loop was built for: once its prepared graphs, rings and
// condition variables are warm, an iteration allocates nothing. Measured
// on the real solvers — heap objects allocated between iterations 20 and
// 220 of a run that cannot converge (Tol 1e-300), read from OnIteration.
// The count is process-wide and some set-up is lazy for good (a task
// handle gets its sync.Cond the first time a coordinator happens to park
// on it; the runtime refills a sudog cache after a GC), so a window sees
// up to a few dozen objects however long it is; one allocation per
// iteration anywhere in a solver shows up as 200.
//
// dist.CACG is the exception, and the bound says by how much: its
// coordinator rebuilds the k×k Gram factor (sparse.NewDense +
// sparse.NewCholesky, k = 4) once per outer step, ≈14 small objects per
// 4 iterations; its rank tasks allocate nothing.
func TestSteadyStateIterationsDoNotAllocate(t *testing.T) {
	const warm, last, ranks = 20, 220, 3
	a := matgen.Poisson2D(48, 48)
	b := matgen.Ones(a.N)
	var m0, m1 runtime.MemStats
	hook := func(it int, _ float64) {
		switch it {
		case warm:
			runtime.ReadMemStats(&m0)
		case last:
			runtime.ReadMemStats(&m1)
		}
	}
	single := func(m core.Method, precond bool) core.Config {
		return core.Config{Method: m, Workers: 2, PageDoubles: 64, Tol: 1e-300, MaxIter: last + 1,
			UsePrecond: precond, OnIteration: hook}
	}
	sharded := Config{Method: core.MethodFEIR, Workers: 2, PageDoubles: 64, Tol: 1e-300, MaxIter: last + 1,
		OnIteration: hook}
	coreCG := func(m core.Method, precond bool) func() error {
		return func() error {
			cg, err := core.NewCG(a, b, single(m, precond))
			if err == nil {
				_, err = cg.Run()
			}
			return err
		}
	}
	for _, c := range []struct {
		name    string
		perIter float64 // allocations per iteration that fail the case
		run     func() error
	}{
		{"core.CG/feir", 0.5, coreCG(core.MethodFEIR, false)},
		{"core.CG/afeir", 0.5, coreCG(core.MethodAFEIR, false)},
		{"core.CG/feir+precond", 0.5, coreCG(core.MethodFEIR, true)},
		{"core.CG/afeir+precond", 0.5, coreCG(core.MethodAFEIR, true)},
		{"core.BatchCG/w4", 0.5, func() error {
			bcg, err := core.NewBatchCG(a, [][]float64{b, b, b, b}, 4, single(core.MethodFEIR, false))
			if err == nil {
				_, err = bcg.Run()
			}
			return err
		}},
		{"dist.CG", 0.5, func() error { _, _, err := SolveCG(a, b, ranks, sharded); return err }},
		{"dist.PipeCG", 0.5, func() error { _, _, err := SolvePipeCG(a, b, ranks, sharded); return err }},
		{"dist.CACG", 4, func() error { _, _, err := SolveCACG(a, b, ranks, sharded); return err }},
	} {
		m0, m1 = runtime.MemStats{}, runtime.MemStats{}
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m1.Mallocs == 0 {
			t.Fatalf("%s: the run never reached iteration %d", c.name, last)
		}
		if got := float64(m1.Mallocs-m0.Mallocs) / (last - warm); got >= c.perIter {
			t.Errorf("%s: %.2f allocations per iteration over iterations %d–%d, want < %v", c.name, got, warm, last, c.perIter)
		}
	}
}
