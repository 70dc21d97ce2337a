package core_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sparse"
)

// TestSolverBaseCancelledAtFirstPoll: every solver, dist.CG included,
// polls Cancelled in its loop (GMRES once per restart cycle). Cancelled at
// the first poll, the solve stops before any iteration with ErrCancelled
// and reports the untouched iterate x = 0; cancelled at the third, it
// stops mid-solve, so a poll deleted from the loop or hoisted above it fails.
func TestSolverBaseCancelledAtFirstPoll(t *testing.T) {
	a, b := core.TestSystem()
	solvers := append(slices.Clip(core.BaseSolvers), core.BaseSolver{Name: "dist.cg",
		Run: func(a *sparse.CSR, b []float64, cfg core.Config) (core.Result, error) {
			res, _, err := dist.SolveCG(a, b, 2, cfg)
			return res, err
		}})
	for _, sv := range solvers {
		for _, k := range []int{1, 3} {
			cfg := core.TestConfig(core.MethodFEIR)
			polls := 0
			cfg.Cancelled = func() bool { polls++; return polls >= k }
			res, err := sv.Run(a, b, cfg)
			if !errors.Is(err, core.ErrCancelled) || polls != k || res.Converged {
				t.Errorf("%s, cancelled at poll %d: err = %v after %d polls, converged %v; want ErrCancelled", sv.Name, k, err, polls, res.Converged)
			}
			if first := res.Iterations == 0 && res.RelResidual == 1; first != (k == 1) {
				t.Errorf("%s, cancelled at poll %d: iterations %d, residual %v", sv.Name, k, res.Iterations, res.RelResidual)
			}
		}
	}
}
