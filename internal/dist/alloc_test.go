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
	coreCG := func(m core.Method, precond bool) func() error {
		return func() error {
			cg, err := core.NewCG(a, b, single(m, precond))
			if err == nil {
				_, err = cg.Run()
			}
			return err
		}
	}
	distCG := func(m core.Method, precond bool) func() error {
		return func() error {
			cfg := Config{Method: m, Workers: 2, PageDoubles: 64, Tol: 1e-300, MaxIter: last + 1,
				UsePrecond: precond, OnIteration: hook}
			_, _, err := SolveCG(a, b, ranks, cfg)
			return err
		}
	}
	const perIter = 0.5 // allocations per iteration that fail a case
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"core.CG/feir", coreCG(core.MethodFEIR, false)},
		{"core.CG/afeir", coreCG(core.MethodAFEIR, false)},
		{"core.CG/feir+precond", coreCG(core.MethodFEIR, true)},
		{"core.CG/afeir+precond", coreCG(core.MethodAFEIR, true)},
		{"dist.CG", distCG(core.MethodFEIR, false)},
		{"dist.CG/afeir", distCG(core.MethodAFEIR, false)},
		{"dist.CG/feir+precond", distCG(core.MethodFEIR, true)},
	} {
		m0, m1 = runtime.MemStats{}, runtime.MemStats{}
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m1.Mallocs == 0 {
			t.Fatalf("%s: the run never reached iteration %d", c.name, last)
		}
		if got := float64(m1.Mallocs-m0.Mallocs) / (last - warm); got >= perIter {
			t.Errorf("%s: %.2f allocations per iteration over iterations %d–%d, want < %v", c.name, got, warm, last, perIter)
		}
	}
}
