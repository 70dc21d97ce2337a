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
// losses, the true residual, the Result and the Lossy step.
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

	// When the running Run started, and whether accept took x, at which
	// true residual: what result reports.
	began     time.Time
	converged bool
	final     float64

	resilient bool      // FEIR or AFEIR
	scratch   []float64 // one page of recovery scratch
	resid     []float64 // full-length true-residual scratch (reused)

	// The recovery interpreter's state (recovery.go): the version the
	// running phase produces, which repair rows read theirs relative to,
	// and the coupled rows' group scratch.
	ver    int64
	group  []int
	stamps []engine.Stamps // every stamped vector's (see stamped)
	// restartFrom is the solver's own restart from x after the Lossy
	// step, leaving every vector current at the given version; rollback
	// is Checkpoint's (CG), nil for a solver with no snapshot protocol.
	restartFrom func(ver int64)
	rollback    func()
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

// start begins a Run. The first Run (every Run, on a private pool, which
// the returned func closes) attaches the runtime, builds the engine, with
// guards if guarded, and the relations, and calls prepare, the solver's
// task-graph preparation that later Runs replay. Every Run then starts
// from the pre-Run state: lost pages blanked, vectors zeroed, stamps at
// -1, counters cleared (a no-op on a fresh instance).
func (s *solverBase) start(guarded bool, prepare func()) (release func()) {
	s.began, release = time.Now(), func() {}
	if s.eng == nil {
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
		prepare()
	}
	blankAllFailed(s.space)
	for _, v := range s.space.Vectors() {
		clear(v.Data)
		v.InvalidateChecksums()
	}
	s.fillStamps(-1)
	s.stats, s.converged, s.final = Stats{}, false, 0
	return release
}

// produced stamps page p of out at the running version once a guarded
// page operation wrote it. A full-page overwrite also revalidates the
// page; a read-modify-write keeps a poison that landed mid-task detected.
//
//due:hotpath
func (s *solverBase) produced(out engine.Vec, p int, overwrite bool) {
	if s.eng.Resilient {
		if overwrite {
			out.V.MarkRecovered(p)
		}
		out.S[p].Store(s.ver)
	}
}

// sum adds up a reduction's partials, counting its missing contributions
// in Stats.ContributionsLost.
func (s *solverBase) sum(part *engine.Partial) (sum float64, missing int) {
	sum, missing = part.SumAvailable()
	s.stats.ContributionsLost += missing
	return sum, missing
}

// stamped adds a protected vector to the space with its version stamps.
func (s *solverBase) stamped(name string) (*pagemem.Vector, engine.Stamps) {
	st := engine.NewStamps(s.np)
	s.stamps = append(s.stamps, st)
	return s.space.AddVector(name), st
}

// fillStamps stores ver into every page stamp of every stamped vector.
func (s *solverBase) fillStamps(ver int64) {
	for _, st := range s.stamps {
		st.Fill(ver)
	}
}

// DynamicVectors lists the vectors the paper's injections cover (§5.3):
// every vector of the fault domain — the Krylov vectors, not constant
// data or resilience metadata — in the order the solver added them.
func (s *solverBase) DynamicVectors() []*pagemem.Vector {
	return append([]*pagemem.Vector(nil), s.space.Vectors()...)
}

// Space returns the fault domain: error injectors target its vectors.
func (s *solverBase) Space() *pagemem.Space { return s.space }

// SetSite installs (or clears) the fault-site hook (DESIGN §12), typically
// a started inject.Plan's Site. Set it only between Runs.
func (s *solverBase) SetSite(f func(iteration int, task string, pages int)) { s.sites.Hook = f }

// applyPending makes the pending data losses take effect — call it with
// every worker quiescent — and counts them as seen. The first loss of a
// method that reads factors fills the whole block cache (DESIGN §8);
// a later loss pays one atomic load for it.
func (s *solverBase) applyPending() {
	n := len(s.space.ScramblePending())
	s.stats.FaultsSeen += n
	if n > 0 && s.cfg.Method.ReadsFactors() {
		s.blocks.PrefactorizeLenient()
	}
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
// (AcceptTrueResidual) to it; an accepted x ends the Run converged.
func (s *solverBase) accept(tol float64) (ok bool, err error) {
	s.final = s.trueResidual()
	s.converged, err = AcceptTrueResidual(s.final, tol)
	return s.converged, err
}

// relFromEpsilon converts an <g,g> reduction into the relative residual.
func relFromEpsilon(eps, bnorm float64) float64 {
	return math.Sqrt(math.Max(eps, 0)) / bnorm
}

// result builds a Run's Result after it iterations; the true residual
// is accept's for a converged Run, computed here for one that ended any
// other way.
func (s *solverBase) result(it int) Result {
	final := s.final
	if !s.converged {
		final = s.trueResidual()
	}
	return Result{
		Converged:   s.converged,
		Iterations:  it,
		RelResidual: final,
		Elapsed:     time.Since(s.began),
		Stats:       s.stats,
		WorkerTimes: s.rt.WorkerTimes(),
	}
}

// lossyRestart is the Lossy step (§4.3) and every solver's one endgame
// for a loss no Table 1 relation can rebuild (§2.4): one block-Jacobi
// interpolation of the listed iterate pages, then the solver's own
// restart from x at the running version, which rebuilds everything
// else. A page whose block system cannot be solved is blanked and counted
// in Stats.Unrecovered.
func (s *solverBase) lossyRestart(pages []int) {
	if len(pages) > 0 && LossyInterpolate(s.a, s.layout, s.blocks, s.b, s.x.Data, pages) {
		s.stats.LossyInterpolations += len(pages)
		for _, p := range pages {
			s.x.MarkRecovered(p)
		}
	} else {
		for _, p := range pages {
			s.x.Remap(p)
			s.x.MarkRecovered(p)
			s.stats.Unrecovered++
		}
	}
	s.restartFrom(s.ver)
	s.stats.Restarts++
}
