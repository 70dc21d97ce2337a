package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// BatchCG runs b independent CG recurrences over one matrix in lockstep,
// sharing a single SpMM pass per iteration: the batched analogue of CG
// for the multi-RHS serving path. The vectors live interleaved
// (column-major-by-row) in a multivector page space whose pages hold all
// b columns of a row range, so the version stamps, DUE poison
// granularity and FEIR/AFEIR recovery relations of the scalar solver
// extend column-wise with no new fault-semantics cases. Scalars (α, β,
// ε) are per-column; every kernel performs, per column, the same
// floating-point operations in the same order as the scalar CG, so each
// column's trajectory — iterates, residuals, iteration count — is
// bitwise the unbatched run's.
//
// A column that converges (or is cancelled) RETIRES: its coefficients
// freeze at zero so the kernels keep sweeping all b slots branch-light
// while the column's x and g stop moving. The batch finishes when every
// bound column has retired.
//
// Supported methods: Ideal, FEIR, AFEIR. Preconditioning, ABFT,
// checkpointing and the Lossy fallback are scalar-path features and are
// rejected at construction — the serving coalescer only batches requests
// that fit this envelope.
type BatchCG struct {
	cfg    Config
	a      *sparse.CSR
	width  int       // kernel width (slot capacity)
	bound  int       // columns bound to a live RHS (<= width)
	b      []float64 // interleaved RHS, n*width
	bnorm  []float64
	layout sparse.BlockLayout
	np     int

	space   *pagemem.Space
	x, g, q *pagemem.Vector
	d       [2]*pagemem.Vector

	blocks *sparse.BlockSolverCache
	conn   [][]int

	xS, gS, qS engine.Stamps
	dS         [2]engine.Stamps

	dqPart, ggPart *engine.PartialBlock

	rt  *taskrt.Runtime
	eng *engine.Engine

	stats Stats

	// Per-column recurrence state (length width; retired slots stay 0).
	alpha, negAlpha, beta, epsGG []float64
	dq, gg                       []float64 // coordinator reduction scratch

	retired      []bool
	colRestart   []bool // force a beta=0 step for one column
	colIters     []int
	colConverged []bool
	colCancelled []bool
	// colFinal: the true residual that accepted a column, reported as is
	// while no page was lost since colFinalAt (its α is 0: x is untouched).
	colFinal   []float64
	colFinalAt []int
	cancel     []func() bool // per-column cancellation polls

	doubleBuffer bool
	resilient    bool

	restartPending bool

	scratch    []float64 // pd*width compact SpMM recovery scratch
	colScratch []float64 // pd per-column block-solve scratch
	resid      []float64 // n true-residual scratch
	xcol       []float64 // n column gather scratch

	prep struct {
		d, q, x, g *engine.Prepared
		r1o, r23o  *engine.Prepared
		r1c, r23c  *engine.Prepared
		r1After    []*taskrt.Handle
		r23After   []*taskrt.Handle
		// Every handle of a phase, overlapped recovery included: one
		// WaitAll per phase boundary (see CG.prep).
		phase1, phase2 []*taskrt.Handle
	}
	iterVer           int64
	iterBeta          []float64 // per-column beta snapshot (restarts applied)
	iterNeedPrev      bool      // any iterBeta[j] != 0
	iterCur, iterPrev int
}

// BatchColumnResult is one column's outcome of a batched solve.
type BatchColumnResult struct {
	Converged   bool
	Cancelled   bool
	Iterations  int
	RelResidual float64
}

// BatchResult aggregates a batched solve: per-column outcomes plus the
// shared iteration count and resilience counters.
type BatchResult struct {
	Columns    []BatchColumnResult
	Iterations int // shared iterations run (max over columns)
	Elapsed    time.Duration
	Stats      Stats
}

// NewBatchCG builds a batched CG of kernel width `width` for the SPD
// system A X = B, binding the columns of rhs (len(rhs) <= width; unused
// slots ride along retired). Width is capped at sparse.MaxBatchWidth.
func NewBatchCG(a *sparse.CSR, rhs [][]float64, width int, cfg Config) (*BatchCG, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("core: non-square matrix %dx%d", a.N, a.M)
	}
	if width < 1 || width > sparse.MaxBatchWidth {
		return nil, fmt.Errorf("core: batch width %d out of range [1, %d]", width, sparse.MaxBatchWidth)
	}
	switch cfg.Method {
	case MethodIdeal, MethodFEIR, MethodAFEIR:
	default:
		return nil, fmt.Errorf("core: batch CG supports methods ideal/feir/afeir, not %v", cfg.Method)
	}
	if cfg.UsePrecond {
		return nil, fmt.Errorf("core: batch CG has no preconditioned variant")
	}
	if cfg.ABFT {
		return nil, fmt.Errorf("core: batch CG has no ABFT checksum coverage")
	}
	if cfg.Fallback == FallbackLossy {
		return nil, fmt.Errorf("core: batch CG supports the Ignore fallback only")
	}
	s := &BatchCG{
		cfg:    cfg,
		a:      a,
		width:  width,
		layout: sparse.BlockLayout{N: a.N, BlockSize: cfg.pageDoubles()},
	}
	s.np = s.layout.NumBlocks()
	// One page = all `width` columns of pageDoubles rows: same page count
	// and connectivity as the scalar solver, b columns per fault.
	s.space = pagemem.NewSpace(a.N*width, cfg.pageDoubles()*width)
	s.x = s.space.AddVector("x")
	s.g = s.space.AddVector("g")
	s.q = s.space.AddVector("q")
	s.d[0] = s.space.AddVector("d0")
	s.resilient = cfg.Method == MethodFEIR || cfg.Method == MethodAFEIR
	s.doubleBuffer = s.resilient
	if s.doubleBuffer {
		s.d[1] = s.space.AddVector("d1")
	} else {
		s.d[1] = s.d[0]
	}
	if cfg.Blocks != nil {
		if cfg.Blocks.A != a || cfg.Blocks.Layout != s.layout || !cfg.Blocks.SPD {
			return nil, fmt.Errorf("core: shared block cache mismatch (want matrix %p layout %+v spd=true, have %p %+v spd=%v)",
				a, s.layout, cfg.Blocks.A, cfg.Blocks.Layout, cfg.Blocks.SPD)
		}
		s.blocks = cfg.Blocks
	} else {
		s.blocks = sparse.NewBlockSolverCache(a, s.layout, true)
	}

	s.xS = engine.NewStamps(s.np)
	s.gS = engine.NewStamps(s.np)
	s.qS = engine.NewStamps(s.np)
	s.dS[0] = engine.NewStamps(s.np)
	if s.doubleBuffer {
		s.dS[1] = engine.NewStamps(s.np)
	} else {
		s.dS[1] = s.dS[0]
	}
	s.dqPart = engine.NewPartialBlock(s.np, width)
	s.ggPart = engine.NewPartialBlock(s.np, width)

	s.b = make([]float64, a.N*width)
	s.bnorm = make([]float64, width)
	s.alpha = make([]float64, width)
	s.negAlpha = make([]float64, width)
	s.beta = make([]float64, width)
	s.epsGG = make([]float64, width)
	s.dq = make([]float64, width)
	s.gg = make([]float64, width)
	s.iterBeta = make([]float64, width)
	s.retired = make([]bool, width)
	s.colRestart = make([]bool, width)
	s.colIters = make([]int, width)
	s.colConverged = make([]bool, width)
	s.colCancelled = make([]bool, width)
	s.colFinal = make([]float64, width)
	s.colFinalAt = make([]int, width)
	s.cancel = make([]func() bool, width)

	s.scratch = make([]float64, cfg.pageDoubles()*width)
	s.colScratch = make([]float64, cfg.pageDoubles())
	s.resid = make([]float64, a.N)
	s.xcol = make([]float64, a.N)

	if err := s.Rebind(rhs); err != nil {
		return nil, err
	}
	return s, nil
}

// Space returns the fault domain: error injectors target its vectors.
func (s *BatchCG) Space() *pagemem.Space { return s.space }

// DynamicVectors lists the vectors the paper's injections cover (§5.3).
func (s *BatchCG) DynamicVectors() []*pagemem.Vector {
	vs := []*pagemem.Vector{s.x, s.g, s.q, s.d[0]}
	if s.doubleBuffer {
		vs = append(vs, s.d[1])
	}
	return vs
}

// Width returns the kernel width (slot capacity).
func (s *BatchCG) Width() int { return s.width }

// Bound returns the number of columns bound by the last Rebind.
func (s *BatchCG) Bound() int { return s.bound }

// Stats returns a snapshot of the resilience counters. Only valid after
// Run returned.
func (s *BatchCG) Stats() Stats { return s.stats }

// SetCancelled installs (or clears) the whole-batch cancellation poll.
func (s *BatchCG) SetCancelled(f func() bool) { s.cfg.Cancelled = f }

// SetColumnCancelled installs (or clears) column j's cancellation poll:
// a cancelled column retires (its slot freezes) while the rest of the
// batch keeps solving.
func (s *BatchCG) SetColumnCancelled(j int, f func() bool) { s.cancel[j] = f }

// SetOnIteration installs (or clears) the residual trace hook; it
// receives the max relative recurrence residual over the active columns.
func (s *BatchCG) SetOnIteration(f func(it int, relRes float64)) { s.cfg.OnIteration = f }

// Solution returns column j of the iterate, gathered into the shared
// column scratch. Only valid after Run returned; the next call (or Run)
// overwrites it.
func (s *BatchCG) Solution(j int) []float64 {
	sparse.GatherColumn(s.x.Data, s.width, j, s.xcol)
	return s.xcol
}

// SolutionInto gathers column j of the iterate into dst (length n).
func (s *BatchCG) SolutionInto(j int, dst []float64) {
	sparse.GatherColumn(s.x.Data, s.width, j, dst)
}

// Rebind replaces the bound right-hand sides in place (len(rhs) may
// differ from the previous binding, up to the kernel width): the pooled
// warm-instance path across batch widths. Unused slots are zeroed and
// retire immediately at the next Run.
func (s *BatchCG) Rebind(rhs [][]float64) error {
	if len(rhs) < 1 || len(rhs) > s.width {
		return fmt.Errorf("core: %d rhs columns for batch width %d", len(rhs), s.width)
	}
	for j, col := range rhs {
		if len(col) != s.a.N {
			return fmt.Errorf("core: rhs column %d length %d for n=%d", j, len(col), s.a.N)
		}
	}
	for i := range s.b {
		s.b[i] = 0
	}
	for j := range s.bnorm {
		s.bnorm[j] = 1
	}
	for j, col := range rhs {
		sparse.ScatterColumn(col, s.b, s.width, j)
		s.bnorm[j] = sparse.Norm2(col)
		if s.bnorm[j] == 0 {
			s.bnorm[j] = 1
		}
	}
	s.bound = len(rhs)
	for j := range s.cancel {
		s.cancel[j] = nil
	}
	return nil
}

// resetState returns the instance to its pre-Run state so a pooled
// batch solver can serve a fresh request (see CG.resetState).
func (s *BatchCG) resetState() {
	blankAllFailed(s.space)
	zero := func(v *pagemem.Vector) {
		for i := range v.Data {
			v.Data[i] = 0
		}
	}
	zero(s.x)
	zero(s.g)
	zero(s.q)
	zero(s.d[0])
	if s.doubleBuffer {
		zero(s.d[1])
	}
	s.xS.Fill(-1)
	s.gS.Fill(-1)
	s.qS.Fill(-1)
	s.dS[0].Fill(-1)
	if s.doubleBuffer {
		s.dS[1].Fill(-1)
	}
	s.stats = Stats{}
	for j := 0; j < s.width; j++ {
		s.alpha[j], s.negAlpha[j], s.beta[j], s.epsGG[j] = 0, 0, 0, 0
		s.iterBeta[j] = 0
		s.retired[j] = j >= s.bound // padding slots never run
		s.colRestart[j] = false
		s.colIters[j] = 0
		s.colConverged[j] = false
		s.colCancelled[j] = false
	}
}

// buildEngine constructs the engine and prepared task graph on the
// current runtime (see CG.buildEngine).
func (s *BatchCG) buildEngine() {
	s.eng = engine.New(s.a, s.layout, s.rt, s.resilient, 0)
	s.eng.RecoveryPriority = s.cfg.overlapPriority()
	s.conn = s.eng.Conn
	s.buildPrepared()
}

// ensureEngine lazily builds the engine against the external runtime;
// the prepared graph survives across Runs (the zero-rebuild property the
// serving layer pins).
func (s *BatchCG) ensureEngine() {
	if s.eng != nil {
		return
	}
	s.rt = s.cfg.RT
	s.buildEngine()
}

// activeRel returns the max relative recurrence residual over the
// unretired bound columns (0 when all retired).
func (s *BatchCG) activeRel() float64 {
	var rel float64
	for j := 0; j < s.bound; j++ {
		if s.retired[j] {
			continue
		}
		if r := math.Sqrt(math.Max(s.epsGG[j], 0)) / s.bnorm[j]; r > rel {
			rel = r
		}
	}
	return rel
}

// allRetired reports whether every bound column has retired.
func (s *BatchCG) allRetired() bool {
	for j := 0; j < s.bound; j++ {
		if !s.retired[j] {
			return false
		}
	}
	return true
}

// trueResidualCol computes ||b_j - A x_j|| / ||b_j|| sequentially in the
// solver-owned scratch — bitwise the scalar solver's check on the same
// column data.
func (s *BatchCG) trueResidualCol(j int) float64 {
	sparse.GatherColumn(s.x.Data, s.width, j, s.xcol)
	s.a.MulVec(s.xcol, s.resid)
	w := s.width
	for i := range s.resid {
		s.resid[i] = s.b[i*w+j] - s.resid[i]
	}
	return sparse.Norm2(s.resid) / s.bnorm[j]
}

// refreshResidualCol recomputes column j's residual g_j = b_j - A x_j in
// place and forces a beta=0 step for that column — the per-column
// analogue of CG.refreshResidual. Other columns' data in the shared
// pages is untouched, and page stamps stay valid: the rewritten column
// is exactly as consistent with x at the current version as before.
func (s *BatchCG) refreshResidualCol(j int) {
	sparse.GatherColumn(s.x.Data, s.width, j, s.xcol)
	s.a.MulVec(s.xcol, s.resid)
	w := s.width
	var eps float64
	for i := range s.resid {
		gij := s.b[i*w+j] - s.resid[i]
		s.g.Data[i*w+j] = gij
		eps += gij * gij
	}
	s.epsGG[j] = eps
	s.colRestart[j] = true
	s.stats.Restarts++
}

// retireCol freezes column j's slot at iteration t.
func (s *BatchCG) retireCol(j, t int, converged, cancelled bool) {
	s.retired[j] = true
	s.colIters[j] = t
	s.colConverged[j] = converged
	s.colCancelled[j] = cancelled
	s.alpha[j], s.negAlpha[j], s.beta[j] = 0, 0, 0
}

// snapshot builds the per-column results from the current state.
func (s *BatchCG) snapshot(t int, start time.Time) BatchResult {
	cols := make([]BatchColumnResult, s.bound)
	for j := 0; j < s.bound; j++ {
		it := s.colIters[j]
		if !s.retired[j] {
			it = t
		}
		final := s.colFinal[j]
		if !s.colConverged[j] || s.colFinalAt[j] != s.stats.FaultsSeen {
			final = s.trueResidualCol(j)
		}
		cols[j] = BatchColumnResult{
			Converged:   s.colConverged[j],
			Cancelled:   s.colCancelled[j],
			Iterations:  it,
			RelResidual: final,
		}
	}
	return BatchResult{
		Columns:    cols,
		Iterations: t,
		Elapsed:    time.Since(start),
		Stats:      s.stats,
	}
}

// Run executes the batched solve. Like CG.Run it may be called
// repeatedly (Rebind in between): with Config.RT set the engine and
// prepared graphs are built once and replayed by every later Run.
func (s *BatchCG) Run() (BatchResult, error) {
	start := time.Now()
	if s.cfg.RT != nil {
		s.ensureEngine()
	} else {
		s.rt = taskrt.New(s.cfg.workers())
		defer func() { s.rt.Close(); s.rt, s.eng = nil, nil }()
		s.buildEngine()
	}
	s.resetState()

	tol := s.cfg.tol()
	maxIter := s.cfg.maxIter(s.a.N)

	// Initial state: X = 0, G = B, D built in iteration 0 via beta = 0.
	copy(s.g.Data, s.b)
	for j := range s.epsGG {
		s.epsGG[j] = 0
	}
	sparse.BatchDotRange(s.g.Data, s.g.Data, s.width, 0, s.a.N, s.epsGG)
	for j := range s.beta {
		s.beta[j] = 0
	}
	s.restartPending = true

	var t int
	for t = 0; t < maxIter; t++ {
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			return s.snapshot(t, start), ErrCancelled
		}
		for j := 0; j < s.bound; j++ {
			if !s.retired[j] && s.cancel[j] != nil && s.cancel[j]() {
				s.retireCol(j, t, false, true)
			}
		}
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(t, s.activeRel())
		}
		for j := 0; j < s.bound; j++ {
			if s.retired[j] {
				continue
			}
			rel := math.Sqrt(math.Max(s.epsGG[j], 0)) / s.bnorm[j]
			if rel >= tol {
				continue
			}
			if final := s.trueResidualCol(j); final < tol*10 {
				s.retireCol(j, t, true, false)
				s.colFinal[j], s.colFinalAt[j] = final, s.stats.FaultsSeen
			} else {
				// Recurrence converged but the true residual disagrees
				// (possible after ignored unrecoverable errors): refresh
				// this column's residual and keep iterating.
				s.refreshResidualCol(j)
			}
		}
		if s.allRetired() {
			break
		}

		// ---------------- Phase 1: D, Q, <d,q> (+ r1) ----------------
		ver := int64(t)
		s.runPhase1(ver)
		s.boundary()
		missing := s.dqPart.SumAvailable(zeroed(s.dq))
		s.stats.ContributionsLost += missing
		for j := 0; j < s.width; j++ {
			if s.retired[j] {
				s.alpha[j], s.negAlpha[j] = 0, 0
				continue
			}
			if s.dq[j] != 0 && !math.IsNaN(s.dq[j]) && !math.IsNaN(s.epsGG[j]) {
				s.alpha[j] = s.epsGG[j] / s.dq[j]
			} else {
				s.alpha[j] = 0 // degenerate step: no progress this iteration
			}
			s.negAlpha[j] = -s.alpha[j]
		}

		// ---------------- Phase 2: X, G, eps (+ r2/r3) ----------------
		s.runPhase2(ver)
		s.boundary()
		missingGG := s.ggPart.SumAvailable(zeroed(s.gg))
		s.stats.ContributionsLost += missingGG
		for j := 0; j < s.width; j++ {
			if s.retired[j] {
				s.beta[j] = 0
				continue
			}
			if s.epsGG[j] != 0 && !math.IsNaN(s.gg[j]) {
				s.beta[j] = s.gg[j] / s.epsGG[j]
			} else {
				s.beta[j] = 0
			}
			s.epsGG[j] = s.gg[j]
			s.colRestart[j] = false
		}
		s.restartPending = false

		if s.resilient {
			s.reconcile(ver)
		}
	}

	return s.snapshot(t, start), nil
}

// zeroed zeroes v in place and returns it (reduction scratch reuse).
func zeroed(v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// buildPrepared constructs the prepared steady-state task graph once per
// solve; every iteration replays the same handles, so the hot loop
// allocates nothing (see CG.buildPrepared).
func (s *BatchCG) buildPrepared() {
	e := s.eng
	w := s.width
	prio := s.cfg.TaskPriority
	// D = G + beta_j D' per column. Full overwrite: skipped pages keep
	// their old version, produced pages revalidate.
	//due:hotpath
	s.prep.d = e.Prepare("bd", prio, func(_, pLo, pHi int) {
		ver := s.iterVer
		dCur := vec(s.d[s.iterCur], s.dS[s.iterCur])
		dPrev := vec(s.d[s.iterPrev], s.dS[s.iterPrev])
		src := vec(s.g, s.gS)
		needPrev := s.iterNeedPrev
		for p := pLo; p < pHi; p++ {
			if e.Resilient && (!src.Current(p, ver-1) || (needPrev && !dPrev.Current(p, ver-1))) {
				continue
			}
			lo, hi := s.layout.Range(p)
			sparse.BatchXpbyOutRange(src.V.Data, s.iterBeta, dPrev.V.Data, dCur.V.Data, w, lo, hi)
			if e.Resilient {
				dCur.V.MarkRecovered(p)
				dCur.S[p].Store(ver)
			}
		}
	})
	// Fused Q = A D with the per-column <d,q> partial rows.
	//due:hotpath
	s.prep.q = e.Prepare("bq,<d,q>", prio, func(_, pLo, pHi int) {
		ver := s.iterVer
		in := engine.In(vec(s.d[s.iterCur], s.dS[s.iterCur]), ver)
		out := engine.Operand{Vec: vec(s.q, s.qS), Ver: ver}
		for p := pLo; p < pHi; p++ {
			lo, hi := s.layout.Range(p)
			e.SpMMDotPage(p, lo, hi, w, in, out, s.dqPart, nil)
		}
	})
	// X += alpha_j D: read-modify-write, late poisons stay detected.
	//due:hotpath
	s.prep.x = e.Prepare("bx", prio, func(_, pLo, pHi int) {
		ver := s.iterVer
		dCur := vec(s.d[s.iterCur], s.dS[s.iterCur])
		xV := vec(s.x, s.xS)
		for p := pLo; p < pHi; p++ {
			if e.Resilient && (!xV.Current(p, ver-1) || !dCur.Current(p, ver)) {
				continue
			}
			lo, hi := s.layout.Range(p)
			sparse.BatchAxpyRange(s.alpha, dCur.V.Data, s.x.Data, w, lo, hi)
			if e.Resilient {
				xV.S[p].Store(ver)
			}
		}
	})
	// Fused G -= alpha_j Q with the per-column eps partial rows.
	//due:hotpath
	s.prep.g = e.Prepare("bg,eps", prio, func(_, pLo, pHi int) {
		ver := s.iterVer
		qIn := engine.In(vec(s.q, s.qS), ver)
		gOut := engine.Operand{Vec: vec(s.g, s.gS), Ver: ver}
		for p := pLo; p < pHi; p++ {
			lo, hi := s.layout.Range(p)
			e.BatchAxpyDotPage(p, lo, hi, w, s.negAlpha, qIn, gOut, s.ggPart)
		}
	})
	// Recovery tasks: overlapped (AFEIR, Fig 2b) and critical-path (FEIR,
	// Fig 2a) variants of r1 and r2/r3, column-wise over the same
	// relations.
	r1 := func(allowLate bool) func() {
		return func() { s.recoverPhase1(s.iterVer, s.iterCur, s.iterPrev, allowLate) }
	}
	r23 := func(allowLate bool) func() {
		return func() { s.recoverPhase2(s.iterVer, s.iterCur, allowLate) }
	}
	//due:recovery
	s.prep.r1o = e.PrepareSingle("br1", s.cfg.overlapPriority(), r1(false))
	//due:recovery
	s.prep.r23o = e.PrepareSingle("br2r3", s.cfg.overlapPriority(), r23(false))
	//due:allow(priority-clamp) FEIR recovery is critical-path by design (Fig 2a): the coordinator blocks on it, so it runs at the compute tier, not below it
	//due:recovery
	s.prep.r1c = e.PrepareSingle("br1", prio, r1(true))
	//due:allow(priority-clamp) FEIR recovery is critical-path by design (Fig 2a): the coordinator blocks on it, so it runs at the compute tier, not below it
	//due:recovery
	s.prep.r23c = e.PrepareSingle("br2r3", prio, r23(true))

	s.prep.r1After = append(append([]*taskrt.Handle{}, s.prep.d.Handles()...), s.prep.q.Handles()...)
	s.prep.r23After = append(append([]*taskrt.Handle{}, s.prep.x.Handles()...), s.prep.g.Handles()...)
	s.prep.phase1 = append(append([]*taskrt.Handle{}, s.prep.r1After...), s.prep.r1o.Handles()...)
	s.prep.phase2 = append(append([]*taskrt.Handle{}, s.prep.r23After...), s.prep.r23o.Handles()...)
}

// runPhase1 replays the prepared D-update and fused Q/<d,q> tasks plus
// the r1 recovery task, and waits for them (see CG.runPhase1).
func (s *BatchCG) runPhase1(ver int64) {
	t := int(ver)
	cur, prev := 0, 0
	if s.doubleBuffer {
		cur, prev = t%2, (t+1)%2
	}
	needPrev := false
	for j := 0; j < s.width; j++ {
		b := s.beta[j]
		if s.restartPending || s.colRestart[j] || s.retired[j] {
			b = 0
		}
		s.iterBeta[j] = b
		if b != 0 {
			needPrev = true
		}
	}
	s.iterVer, s.iterCur, s.iterPrev, s.iterNeedPrev = ver, cur, prev, needPrev
	s.dqPart.ResetMissing()

	dH := s.prep.d.Submit(nil)
	s.prep.q.Submit(dH)

	skipRecovery := s.cfg.OnDemandRecovery && !s.space.AnyFault()
	overlapped := s.cfg.Method == MethodAFEIR && !skipRecovery
	if overlapped {
		s.prep.r1o.Submit(s.prep.r1After)
	}
	s.rt.WaitAll(s.prep.phase1)
	if s.cfg.Method == MethodFEIR && !(s.cfg.OnDemandRecovery && !s.space.AnyFault()) {
		s.prep.r1c.Submit(nil)
		s.prep.r1c.Wait()
	}
}

// runPhase2 replays the prepared X update and fused G/eps tasks plus the
// r2/r3 recovery, and waits (see CG.runPhase2).
func (s *BatchCG) runPhase2(ver int64) {
	t := int(ver)
	cur := 0
	if s.doubleBuffer {
		cur = t % 2
	}
	s.iterVer, s.iterCur = ver, cur
	s.ggPart.ResetMissing()

	s.prep.x.Submit(nil)
	s.prep.g.Submit(nil)

	skipRecovery := s.cfg.OnDemandRecovery && !s.space.AnyFault()
	overlapped := s.cfg.Method == MethodAFEIR && !skipRecovery
	if overlapped {
		s.prep.r23o.Submit(s.prep.r23After)
	}
	s.rt.WaitAll(s.prep.phase2)
	if s.cfg.Method == MethodFEIR && !(s.cfg.OnDemandRecovery && !s.space.AnyFault()) {
		s.prep.r23c.Submit(nil)
		s.prep.r23c.Wait()
	}
}

// boundary is a task-phase boundary with all workers quiescent: pending
// data losses take effect, the Ideal method blanks them, FEIR/AFEIR hand
// them to the recovery tasks and reconcile. The batch never skips
// iterations (no Lossy/Checkpoint methods).
func (s *BatchCG) boundary() {
	evs := s.space.ScramblePending()
	s.stats.FaultsSeen += len(evs)
	if !s.space.AnyFault() {
		return
	}
	if !s.resilient {
		blankAllFailed(s.space)
	}
}
