package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// solverBase is what CG, BiCGStab and GMRES share around their
// recurrences: the system and its page layout, the fault domain, the
// factorized diagonal blocks (and the block-Jacobi preconditioner built
// from them), the task runtime with its engine and Table 1 relations,
// the counters, and the run plumbing — construction checks, pending
// losses, the true residual, the Result and the Lossy iterate step.
type solverBase struct {
	cfg    Config
	a      *sparse.CSR
	b      []float64
	bnorm  float64
	layout sparse.BlockLayout
	np     int

	space *pagemem.Space
	x     *pagemem.Vector // the iterate; each solver adds it to space

	blocks *sparse.BlockSolverCache
	pre    *precond.BlockJacobi // Config.UsePrecond, nil otherwise
	conn   [][]int
	rel    *Relations
	stats  Stats

	rt    *taskrt.Runtime
	eng   *engine.Engine
	sites engine.Sites // see SetSite

	resilient bool      // FEIR or AFEIR
	scratch   []float64 // one page of recovery scratch
	resid     []float64 // full-length true-residual scratch (reused)
}

// init checks the system and builds everything but the vectors, which
// each solver adds to the space itself, in its own order (the order
// fault plans address them by). spd selects the block factors: Cholesky
// for CG, LU for the general-A solvers.
func (s *solverBase) init(a *sparse.CSR, b []float64, cfg Config, spd bool) error {
	if a.N != a.M {
		return fmt.Errorf("core: non-square matrix %dx%d", a.N, a.M)
	}
	s.cfg, s.a = cfg, a
	s.b = make([]float64, a.N)
	if err := s.rebind(b); err != nil {
		return err
	}
	s.layout = sparse.BlockLayout{N: a.N, BlockSize: cfg.pageDoubles()}
	s.np = s.layout.NumBlocks()
	s.space = pagemem.NewSpace(a.N, cfg.pageDoubles())
	s.resilient = cfg.Method == MethodFEIR || cfg.Method == MethodAFEIR
	if cfg.Blocks != nil {
		if cfg.Blocks.A != a || cfg.Blocks.Layout != s.layout || cfg.Blocks.SPD != spd {
			return fmt.Errorf("core: shared block cache mismatch (want matrix %p layout %+v spd=%v, have %p %+v spd=%v)",
				a, s.layout, spd, cfg.Blocks.A, cfg.Blocks.Layout, cfg.Blocks.SPD)
		}
		s.blocks = cfg.Blocks
	} else {
		s.blocks = sparse.NewBlockSolverCache(a, s.layout, spd)
	}
	if cfg.UsePrecond {
		// The preconditioner blocks are the recovery cache's factors of
		// the same A_pp (§5.1: "the factorization of diagonal blocks ...
		// is already computed").
		pre, err := precond.FromCache(s.blocks)
		if err != nil {
			return fmt.Errorf("core: block-Jacobi setup: %w", err)
		}
		s.pre = pre
	}
	s.scratch = make([]float64, cfg.pageDoubles())
	s.resid = make([]float64, a.N)
	return nil
}

// rebind copies a right-hand side into b in place: the relations and any
// prepared task bodies keep their reference to the same backing array.
func (s *solverBase) rebind(b []float64) error {
	if len(b) != s.a.N {
		return fmt.Errorf("core: rhs length %d for n=%d", len(b), s.a.N)
	}
	copy(s.b, b)
	s.bnorm = sparse.Norm2(b)
	if s.bnorm == 0 {
		s.bnorm = 1
	}
	return nil
}

// open attaches a Run to its runtime — Config.RT, or a private pool that
// the returned func closes — and builds the engine and relations on it.
// guarded selects the engine's stamp-and-fault-bit guards.
func (s *solverBase) open(guarded bool) (release func()) {
	release = func() {}
	rt := s.cfg.RT
	if rt == nil {
		rt = taskrt.New(s.cfg.workers())
		release = func() { rt.Close(); s.rt, s.eng = nil, nil }
	}
	s.rt = rt
	s.eng = engine.New(s.a, s.layout, rt, guarded, 0)
	s.eng.RecoveryPriority = s.cfg.OverlapPriority()
	s.eng.Sites = &s.sites
	s.conn = s.eng.Conn
	s.rel = NewRelations(s.a, s.layout, s.conn, s.blocks, s.b, s.scratch, &s.stats)
	return release
}

// Space returns the fault domain: error injectors target its vectors.
func (s *solverBase) Space() *pagemem.Space { return s.space }

// SetSite installs (or clears) the fault-site hook (DESIGN §12), typically
// a started inject.Plan's Site. Set it only between Runs.
func (s *solverBase) SetSite(f func(iteration int, task string)) { s.sites.Hook = f }

// applyPending makes the pending data losses take effect — call it with
// every worker quiescent — and counts them as seen.
func (s *solverBase) applyPending() {
	s.stats.FaultsSeen += len(s.space.ScramblePending())
}

// trueResidual computes ||b - A x|| / ||b|| sequentially, in the
// solver-owned scratch (no per-check allocation).
func (s *solverBase) trueResidual() float64 {
	r := s.resid
	s.a.MulVec(s.x.Data, r)
	sparse.Sub(s.b, r, r)
	return sparse.Norm2(r) / s.bnorm
}

// accept computes the true residual of x and applies the acceptance rule
// (AcceptTrueResidual) to it.
func (s *solverBase) accept(tol float64) (final float64, ok bool, err error) {
	final = s.trueResidual()
	ok, err = AcceptTrueResidual(final, tol)
	return final, ok, err
}

// relFromEpsilon converts an <g,g> reduction into the relative residual.
func relFromEpsilon(eps, bnorm float64) float64 {
	return math.Sqrt(math.Max(eps, 0)) / bnorm
}

// result builds a Run's Result; final is the true residual of the check
// that accepted x, computed here for a solve that ended any other way.
func (s *solverBase) result(it int, converged bool, final float64, start time.Time) Result {
	if !converged {
		final = s.trueResidual()
	}
	return Result{
		Converged:   converged,
		Iterations:  it,
		RelResidual: final,
		Elapsed:     time.Since(start),
		Stats:       s.stats,
		WorkerTimes: s.rt.WorkerTimes(),
	}
}

// interpolateLostIterate is the Lossy step (§4.3): one block-Jacobi
// interpolation of the listed iterate pages, which are then marked
// recovered and counted. It reports false, touching nothing, when there
// are none or their block system cannot be solved.
func (s *solverBase) interpolateLostIterate(pages []int) bool {
	if len(pages) == 0 || !LossyInterpolate(s.a, s.layout, s.blocks, s.b, s.x.Data, pages) {
		return false
	}
	for _, p := range pages {
		s.x.MarkRecovered(p)
	}
	s.stats.LossyInterpolations += len(pages)
	return true
}
