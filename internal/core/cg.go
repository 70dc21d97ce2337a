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

// CG is the paper's task-parallel Conjugate Gradient (Listing 1/Listing 5)
// with a pluggable resilience method. Strip-mined tasks follow the
// Figure 1 decomposition; the FEIR/AFEIR variants use the double-buffered
// direction of Listing 2, per-page fault bitmasks and version stamps, and
// the recovery tasks r1/r2/r3 of Figure 1(b). The chunked page operations,
// version stamping and recovery scheduling all run through the shared
// internal/engine layer.
//
// Versioning convention: within iteration t, phase 1 produces d and q at
// version t, phase 2 produces x, g (and z) at version t. A page is
// "current" when its stamp equals the expected version and its fault bit
// is clear. Skipped tasks leave the previous version (and its stamp) in
// place, which is what makes the old-q/dPrev recovery of §3.1.1 possible.
type CG struct {
	cfg    Config
	a      *sparse.CSR
	b      []float64
	bnorm  float64
	layout sparse.BlockLayout
	np     int

	space   *pagemem.Space
	x, g, q *pagemem.Vector
	d       [2]*pagemem.Vector
	z       *pagemem.Vector

	pre    *precond.BlockJacobi
	blocks *sparse.BlockSolverCache
	conn   [][]int
	rel    *Relations

	// Per-page version stamps (see package comment).
	xS, gS, qS, zS engine.Stamps
	dS             [2]engine.Stamps

	dqPart, ggPart, zgPart *engine.Partial

	rt    *taskrt.Runtime
	eng   *engine.Engine
	sites engine.Sites // see SetSite

	stats Stats
	beta  float64
	epsGG float64 // <g, g>
	rho   float64 // <z, g> (preconditioned only)
	alpha float64

	doubleBuffer bool
	resilient    bool
	abft         bool // checksum-carrying kernels + verify-on-read

	// sdcInjBase/sdcDetBase snapshot the space's cumulative SDC counters
	// at Run start, so pooled instances report per-run deltas.
	sdcInjBase, sdcDetBase int64

	ck *checkpointer

	scratch  []float64 // one page of recovery scratch
	scratch2 []float64
	resid    []float64 // full-length true-residual scratch (reused)

	// restartPending requests a beta=0 step (d rebuilt from g alone) on
	// the next iteration, set by restart-style recoveries.
	restartPending bool

	// Prepared steady-state task graph (built once in Run): the same
	// handles are replayed every iteration, so the hot loop performs zero
	// allocations. The task bodies read the iter* fields below, which the
	// coordinator writes before each submission (the run-queue handoff
	// provides the happens-before edge).
	prep struct {
		d, q, x, g *engine.Prepared // fused: q carries <d,q>, g carries ε (and z, <z,g>)
		r1o, r23o  *engine.Prepared // overlapped recoveries (AFEIR, prio -1)
		r1c, r23c  *engine.Prepared // critical-path recoveries (FEIR)
		r1After    []*taskrt.Handle // d+q handles (prebuilt: stable)
		r23After   []*taskrt.Handle // x+g handles
		// Every handle of a phase, overlapped recovery included, so a phase
		// boundary is one WaitAll. A replay that does not submit the
		// recovery finds its handle finished already.
		phase1, phase2 []*taskrt.Handle
	}
	iterVer           int64
	iterBeta          float64
	iterCur, iterPrev int
}

// NewCG builds a resilient CG solver for the SPD system A x = b.
func NewCG(a *sparse.CSR, b []float64, cfg Config) (*CG, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("core: non-square matrix %dx%d", a.N, a.M)
	}
	if len(b) != a.N {
		return nil, fmt.Errorf("core: rhs length %d for n=%d", len(b), a.N)
	}
	s := &CG{
		cfg:    cfg,
		a:      a,
		b:      append([]float64(nil), b...),
		layout: sparse.BlockLayout{N: a.N, BlockSize: cfg.pageDoubles()},
	}
	s.bnorm = sparse.Norm2(b)
	if s.bnorm == 0 {
		s.bnorm = 1
	}
	s.np = s.layout.NumBlocks()
	s.space = pagemem.NewSpace(a.N, cfg.pageDoubles())
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
	s.abft = cfg.ABFT && s.resilient
	if cfg.Blocks != nil {
		if cfg.Blocks.A != a || cfg.Blocks.Layout != s.layout || !cfg.Blocks.SPD {
			return nil, fmt.Errorf("core: shared block cache mismatch (want matrix %p layout %+v spd=true, have %p %+v spd=%v)",
				a, s.layout, cfg.Blocks.A, cfg.Blocks.Layout, cfg.Blocks.SPD)
		}
		s.blocks = cfg.Blocks
	} else {
		s.blocks = sparse.NewBlockSolverCache(a, s.layout, true)
	}
	if cfg.UsePrecond {
		s.z = s.space.AddVector("z")
		// Reuse the recovery cache's Cholesky factorizations as the
		// preconditioner blocks — they are the same A_pp (§5.1).
		pre, err := precond.FromCache(s.blocks)
		if err != nil {
			return nil, fmt.Errorf("core: block-Jacobi setup: %w", err)
		}
		s.pre = pre
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
	if cfg.UsePrecond {
		s.zS = engine.NewStamps(s.np)
	}
	s.dqPart = engine.NewPartial(s.np)
	s.ggPart = engine.NewPartial(s.np)
	s.zgPart = engine.NewPartial(s.np)

	if s.abft {
		for _, v := range s.DynamicVectors() {
			v.EnableChecksums()
		}
	}

	s.scratch = make([]float64, cfg.pageDoubles())
	s.scratch2 = make([]float64, cfg.pageDoubles())
	s.resid = make([]float64, a.N)

	if cfg.Method == MethodCheckpoint {
		disk := cfg.Disk
		if disk == nil {
			disk = NewSimDisk(0)
		}
		s.ck = newCheckpointer(disk, cfg.CheckpointInterval, cfg.ExpectedMTBE, a.N, cfg.UsePrecond)
	}
	return s, nil
}

// Space returns the fault domain: error injectors target its vectors.
func (s *CG) Space() *pagemem.Space { return s.space }

// DynamicVectors lists the vectors the paper's injections cover (§5.3):
// the Krylov vectors, excluding constant data and resilience metadata.
func (s *CG) DynamicVectors() []*pagemem.Vector {
	vs := []*pagemem.Vector{s.x, s.g, s.q, s.d[0]}
	if s.doubleBuffer {
		vs = append(vs, s.d[1])
	}
	if s.z != nil {
		vs = append(vs, s.z)
	}
	return vs
}

// Stats returns a snapshot of the resilience counters. Only valid after
// Run returned.
func (s *CG) Stats() Stats { return s.stats }

// captureSDC folds the space's SDC counter deltas (relative to this Run's
// start) into the stats before a Result snapshot is built.
func (s *CG) captureSDC() {
	s.stats.SDCInjected = int(s.space.SDCInjected() - s.sdcInjBase)
	s.stats.SDCDetected = int(s.space.SDCDetected() - s.sdcDetBase)
}

// Solution returns the iterate vector's backing array. Only valid after
// Run returned; the next Run (or resetState) overwrites it.
func (s *CG) Solution() []float64 { return s.x.Data }

// SetCancelled installs (or clears) the per-request cancellation poll —
// pooled instances carry a different request context each checkout.
func (s *CG) SetCancelled(f func() bool) { s.cfg.Cancelled = f }

// SetOnIteration installs (or clears) the per-request residual trace hook.
func (s *CG) SetOnIteration(f func(it int, relRes float64)) { s.cfg.OnIteration = f }

// SetSite installs (or clears) the fault-site hook (DESIGN §12), typically
// a started inject.Plan's Site. Set it only between Runs.
func (s *CG) SetSite(f func(iteration int, task string)) { s.sites.Hook = f }

// Rebind replaces the right-hand side in place — the Relations layer and
// the prepared task bodies keep their reference to the same backing array,
// so a pooled instance serves a new RHS without rebuilding anything.
func (s *CG) Rebind(b []float64) error {
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

// resetState returns the instance to its pre-Run state so a pooled solver
// can serve a fresh request: failed pages remapped, vectors zeroed, stamps
// and scalar recurrences cleared, counters rezeroed. Idempotent on a fresh
// instance.
func (s *CG) resetState() {
	blankAllFailed(s.space)
	zero := func(v *pagemem.Vector) {
		for i := range v.Data {
			v.Data[i] = 0
		}
		v.InvalidateChecksums()
	}
	zero(s.x)
	zero(s.g)
	zero(s.q)
	zero(s.d[0])
	if s.doubleBuffer {
		zero(s.d[1])
	}
	if s.z != nil {
		zero(s.z)
	}
	s.xS.Fill(-1)
	s.gS.Fill(-1)
	s.qS.Fill(-1)
	s.dS[0].Fill(-1)
	if s.doubleBuffer {
		s.dS[1].Fill(-1)
	}
	if s.zS != nil {
		s.zS.Fill(-1)
	}
	s.stats = Stats{}
	s.alpha, s.beta, s.rho, s.epsGG = 0, 0, 0, 0
	if s.cfg.Method == MethodCheckpoint {
		disk := s.cfg.Disk
		if disk == nil {
			disk = NewSimDisk(0)
		}
		s.ck = newCheckpointer(disk, s.cfg.CheckpointInterval, s.cfg.ExpectedMTBE, s.a.N, s.cfg.UsePrecond)
	}
}

// buildEngine constructs the engine, relations and prepared task graph on
// the current runtime. Called once per Run in owned-pool mode, once per
// instance lifetime in shared-pool mode.
func (s *CG) buildEngine() {
	s.eng = engine.New(s.a, s.layout, s.rt, s.resilient, 0)
	s.eng.RecoveryPriority = s.cfg.OverlapPriority()
	s.eng.Sites = &s.sites
	s.conn = s.eng.Conn
	s.rel = &Relations{a: s.a, layout: s.layout, conn: s.conn, blocks: s.blocks, b: s.b, scratch: s.scratch, stats: &s.stats}
	s.buildPrepared()
}

// ensureEngine lazily builds the engine against the external runtime. The
// prepared graph survives across Runs — the zero-rebuild property the
// serving layer's counter test pins.
func (s *CG) ensureEngine() {
	if s.eng != nil {
		return
	}
	s.rt = s.cfg.RT
	s.buildEngine()
}

// vec couples a solver vector with its stamps for the engine operations.
func vec(v *pagemem.Vector, st engine.Stamps) engine.Vec { return engine.Vec{V: v, S: st} }

// Run executes the solve and returns its Result. Run may be called
// repeatedly (with Rebind in between to change the RHS): with Config.RT
// set, the engine and prepared task graphs are built on the first Run and
// replayed by every later one; with a solver-owned pool they are rebuilt
// per Run (and the pool closed after).
func (s *CG) Run() (Result, error) {
	start := time.Now()
	if s.cfg.RT != nil {
		s.ensureEngine()
	} else {
		s.rt = taskrt.New(s.cfg.workers())
		defer func() { s.rt.Close(); s.rt, s.eng = nil, nil }()
		s.buildEngine()
	}
	s.resetState()
	s.sdcInjBase = s.space.SDCInjected()
	s.sdcDetBase = s.space.SDCDetected()

	tol := s.cfg.tol()
	maxIter := s.cfg.maxIter(s.a.N)

	// Initial state: x = 0, g = b, d built in iteration 0 via beta = 0.
	copy(s.g.Data, s.b)
	if s.pre != nil {
		s.applyPrecond()
		s.rho = sparse.Dot(s.z.Data, s.g.Data)
	}
	s.epsGG = sparse.Dot(s.g.Data, s.g.Data)
	s.beta = 0
	s.restartPending = true // iteration 0 is a fresh start

	var t int
	converged := false
	var final float64 // the true residual of the check that accepted x
	for t = 0; t < maxIter; t++ {
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			s.captureSDC()
			return Result{
				Iterations:  t,
				RelResidual: s.trueResidual(),
				Elapsed:     time.Since(start),
				Stats:       s.stats,
				WorkerTimes: s.rt.WorkerTimes(),
			}, ErrCancelled
		}
		rel := math.Sqrt(math.Max(s.epsGG, 0)) / s.bnorm
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(t, rel)
		}
		if rel < tol {
			// The recurrence claims convergence: check the true residual.
			// Exact forward recovery preserves the recurrence, but ignored
			// unrecoverable errors can desynchronise g from b - Ax.
			if final = s.trueResidual(); final < tol*10 {
				converged = true
				break
			}
			// Recurrence said converged but the true residual disagrees
			// (possible after ignored unrecoverable errors): refresh the
			// residual and keep iterating — within the SAME iteration
			// index, so the version stamps stay aligned.
			s.refreshResidual(int64(t) - 1)
			s.stats.Restarts++
		}

		if s.ck != nil {
			s.ck.maybeWrite(s, t, time.Since(start))
		}

		// ---------------- Phase 1: d, q, <d,q> (+ r1) ----------------
		ver := int64(t)
		s.runPhase1(ver)
		if act := s.boundary(ver, afterPhase1); act == actionSkipIteration {
			continue
		}
		dq, missing := s.dqPart.SumAvailable()
		s.stats.ContributionsLost += missing
		num := s.epsGG
		if s.pre != nil {
			num = s.rho
		}
		if dq != 0 && !math.IsNaN(dq) && !math.IsNaN(num) {
			s.alpha = num / dq
		} else {
			s.alpha = 0 // degenerate step: no progress this iteration
		}

		// ---------------- Phase 2: x, g, z, eps (+ r2/r3) -------------
		s.runPhase2(ver)
		if act := s.boundary(ver, afterPhase2); act == actionSkipIteration {
			continue
		}
		gg, missingGG := s.ggPart.SumAvailable()
		s.stats.ContributionsLost += missingGG
		if s.pre != nil {
			zg, missingZG := s.zgPart.SumAvailable()
			s.stats.ContributionsLost += missingZG
			if s.rho != 0 && !math.IsNaN(zg) {
				s.beta = zg / s.rho
			} else {
				s.beta = 0
			}
			s.rho = zg
		} else {
			if s.epsGG != 0 && !math.IsNaN(gg) {
				s.beta = gg / s.epsGG
			} else {
				s.beta = 0
			}
		}
		s.epsGG = gg
		s.restartPending = false

		if s.resilient {
			s.reconcile(ver)
		}
	}

	s.captureSDC()
	if !converged {
		final = s.trueResidual()
	}
	res := Result{
		Converged:   converged,
		Iterations:  t,
		RelResidual: final,
		Elapsed:     time.Since(start),
		Stats:       s.stats,
		WorkerTimes: s.rt.WorkerTimes(),
	}
	return res, nil
}

// buildPrepared constructs the prepared steady-state task graph once per
// solve: every iteration replays the same handles (taskrt.Resubmit), so
// the hot loop allocates nothing. Each fused body applies exactly the
// guard/stamp discipline of the immediate engine op it replaces (the
// engine's exported *Page helpers ARE those ops' bodies); the task bodies
// read the iter* fields the coordinator sets before submission.
func (s *CG) buildPrepared() {
	e := s.eng
	prio := s.cfg.TaskPriority
	// d = src + β d' (src = g, or z when preconditioned). Full overwrite:
	// skipped pages keep their old version, produced pages revalidate.
	//due:hotpath
	s.prep.d = e.Prepare("d", prio, func(_, pLo, pHi int) {
		ver, beta := s.iterVer, s.iterBeta
		dCur := vec(s.d[s.iterCur], s.dS[s.iterCur])
		dPrev := vec(s.d[s.iterPrev], s.dS[s.iterPrev])
		src := vec(s.g, s.gS)
		if s.pre != nil {
			src = vec(s.z, s.zS)
		}
		for p := pLo; p < pHi; p++ {
			if e.Resilient && (!src.Current(p, ver-1) || (beta != 0 && !dPrev.Current(p, ver-1))) {
				continue
			}
			// ABFT: verify the inputs' page checksums BEFORE computing; a
			// mismatch Poisons the page and skips like a stale-input guard,
			// handing the loss to the exact recovery relations.
			if s.abft && (!src.V.VerifyChecksum(p) || (beta != 0 && !dPrev.V.VerifyChecksum(p))) {
				continue
			}
			lo, hi := s.layout.Range(p)
			var ck uint64
			if s.abft {
				if beta == 0 {
					ck = sparse.CopyChecksumRange(dCur.V.Data, src.V.Data, lo, hi)
				} else {
					ck = sparse.XpbyOutChecksumRange(src.V.Data, beta, dPrev.V.Data, dCur.V.Data, lo, hi)
				}
			} else if beta == 0 {
				copy(dCur.V.Data[lo:hi], src.V.Data[lo:hi])
			} else if s.doubleBuffer {
				sparse.XpbyOutRange(src.V.Data, beta, dPrev.V.Data, dCur.V.Data, lo, hi)
			} else {
				sparse.XpbyRange(src.V.Data, beta, dCur.V.Data, lo, hi)
			}
			if e.Resilient {
				dCur.V.MarkRecovered(p)
				dCur.S[p].Store(ver)
			}
			if s.abft {
				dCur.V.SetChecksum(p, ck)
			}
		}
	})
	// Fused q = A d with the <d,q> partials: one task per chunk instead
	// of the SpMV + reduction pair. Skipped q pages keep the OLD A·dPrev
	// values, pairing with dPrev.
	//due:hotpath
	s.prep.q = e.Prepare("q,<d,q>", prio, func(_, pLo, pHi int) {
		ver := s.iterVer
		dCur := vec(s.d[s.iterCur], s.dS[s.iterCur])
		in := engine.In(dCur, ver)
		out := engine.Operand{Vec: vec(s.q, s.qS), Ver: ver}
		for p := pLo; p < pHi; p++ {
			lo, hi := s.layout.Range(p)
			e.SpMVDotPage(p, lo, hi, in, out, s.dqPart, nil)
			// ABFT: fold the checksum on the still-L1-hot page — the SpMV
			// dispatches through the shadow-format kernels, which cannot
			// carry the fold themselves.
			if s.abft && out.Current(p, ver) {
				out.V.SetChecksum(p, sparse.ChecksumRange(out.V.Data, lo, hi))
			}
		}
	})
	// x += α d: read-modify-write, so a poison landing mid-task stays
	// detected for the boundary scramble.
	//due:hotpath
	s.prep.x = e.Prepare("x", prio, func(_, pLo, pHi int) {
		ver, alpha := s.iterVer, s.alpha
		dCur := vec(s.d[s.iterCur], s.dS[s.iterCur])
		xV := vec(s.x, s.xS)
		for p := pLo; p < pHi; p++ {
			if e.Resilient && (!xV.Current(p, ver-1) || !dCur.Current(p, ver)) {
				continue
			}
			// ABFT: x verifies itself pre-RMW (catching flips since its last
			// write) and its direction input.
			if s.abft && (!xV.V.VerifyChecksum(p) || !dCur.V.VerifyChecksum(p)) {
				continue
			}
			lo, hi := s.layout.Range(p)
			if s.abft {
				ck := sparse.AxpyChecksumRange(alpha, dCur.V.Data, s.x.Data, lo, hi)
				xV.S[p].Store(ver)
				if !xV.V.Failed(p) {
					xV.V.SetChecksum(p, ck)
				}
			} else {
				sparse.AxpyRange(alpha, dCur.V.Data, s.x.Data, lo, hi)
				if e.Resilient {
					xV.S[p].Store(ver)
				}
			}
		}
	})
	// Fused g -= α q with the ε = <g,g> partials (read-modify-write) and,
	// preconditioned, the rest of the page's phase 2 while it is still in
	// L1: M is block diagonal, so z_p = M_pp⁻¹ g_p (the guarded partial
	// application of §3.2, a full-page overwrite) and its <z,g> partial
	// read only what this task just wrote.
	gLabel := "g,eps"
	if s.pre != nil {
		gLabel = "g,eps,z,<z,g>"
	}
	//due:hotpath
	s.prep.g = e.Prepare(gLabel, prio, func(_, pLo, pHi int) {
		ver, alpha := s.iterVer, s.alpha
		qIn := engine.In(vec(s.q, s.qS), ver)
		gOp := engine.Operand{Vec: vec(s.g, s.gS), Ver: ver}
		zOp := engine.Operand{Vec: vec(s.z, s.zS), Ver: ver}
		for p := pLo; p < pHi; p++ {
			lo, hi := s.layout.Range(p)
			if s.abft {
				e.AxpyDotPageABFT(p, lo, hi, -alpha, qIn, gOp, s.ggPart)
			} else {
				e.AxpyDotPage(p, lo, hi, -alpha, qIn, gOp, s.ggPart)
			}
			if s.pre == nil {
				continue
			}
			e.ApplyPrecondPage(p, s.pre, gOp, zOp)
			// ABFT: fold on the L1-hot page (the block solves run in the
			// preconditioner, which cannot carry the fold).
			if s.abft && zOp.Current(p, ver) {
				zOp.V.SetChecksum(p, sparse.ChecksumRange(zOp.V.Data, lo, hi))
			}
			e.DotPartialPage(p, lo, hi, zOp, gOp, s.zgPart)
		}
	})
	// Recovery tasks: overlapped at low priority (AFEIR, Fig 2b) and
	// critical-path (FEIR, Fig 2a) variants of r1 and r2/r3.
	r1 := func(allowLate bool) func() {
		return func() { s.recoverPhase1(s.iterVer, s.iterBeta, s.iterCur, s.iterPrev, allowLate) }
	}
	r23 := func(allowLate bool) func() {
		return func() { s.recoverPhase2(s.iterVer, s.iterCur, allowLate) }
	}
	//due:recovery
	s.prep.r1o = e.PrepareSingle("r1", s.cfg.OverlapPriority(), r1(false))
	//due:recovery
	s.prep.r23o = e.PrepareSingle("r2r3", s.cfg.OverlapPriority(), r23(false))
	//due:allow(priority-clamp) FEIR recovery is critical-path by design (Fig 2a): the coordinator blocks on it, so it runs at the compute tier, not below it
	//due:recovery
	s.prep.r1c = e.PrepareSingle("r1", prio, r1(true))
	//due:allow(priority-clamp) FEIR recovery is critical-path by design (Fig 2a): the coordinator blocks on it, so it runs at the compute tier, not below it
	//due:recovery
	s.prep.r23c = e.PrepareSingle("r2r3", prio, r23(true))

	// Prebuilt dependency lists: prepared handles are stable objects, so
	// the concatenations are allocated once.
	s.prep.r1After = append(append([]*taskrt.Handle{}, s.prep.d.Handles()...), s.prep.q.Handles()...)
	s.prep.r23After = append(append([]*taskrt.Handle{}, s.prep.x.Handles()...), s.prep.g.Handles()...)
	s.prep.phase1 = append(append([]*taskrt.Handle{}, s.prep.r1After...), s.prep.r1o.Handles()...)
	s.prep.phase2 = append(append([]*taskrt.Handle{}, s.prep.r23After...), s.prep.r23o.Handles()...)
}

// runPhase1 replays the prepared d-update and fused q/<d,q> tasks, waits
// for them, and runs the r1 recovery if a page is damaged.
func (s *CG) runPhase1(ver int64) {
	t := int(ver)
	cur, prev := 0, 0
	if s.doubleBuffer {
		cur, prev = t%2, (t+1)%2
	}
	beta := s.beta
	if s.restartPending {
		beta = 0
	}
	s.iterVer, s.iterBeta, s.iterCur, s.iterPrev = ver, beta, cur, prev
	s.dqPart.ResetMissing()
	s.sites.Open(t)

	dH := s.prep.d.Submit(nil)
	s.prep.q.Submit(dH)
	s.runRecovery(s.prep.r1o, s.prep.r1c, s.prep.r1After, s.prep.phase1)
}

// runPhase2 replays the prepared x update and the fused g/ε (z, <z,g>)
// tasks — one wave —, waits, and runs the r2/r3 recovery if a page is
// damaged.
func (s *CG) runPhase2(ver int64) {
	t := int(ver)
	cur := 0
	if s.doubleBuffer {
		cur = t % 2
	}
	s.iterVer, s.iterCur = ver, cur
	s.ggPart.ResetMissing()
	if s.pre != nil {
		s.zgPart.ResetMissing()
	}
	s.sites.Open(t)

	s.prep.x.Submit(nil)
	s.prep.g.Submit(nil)
	s.runRecovery(s.prep.r23o, s.prep.r23c, s.prep.r23After, s.prep.phase2)
}

// runRecovery waits for a phase and runs its repair only once a page is
// damaged (§5.2/§7). Damage present when the phase starts: AFEIR submits
// the overlapped repair (lower priority, ordered after the phase's
// producers, Fig 2b). Damage that shows up during the phase — an ABFT
// detection poisons a page mid-phase — is repaired once the phase
// finished: FEIR's critical repair with late rights (Fig 2a), or AFEIR's
// overlapped body without them. The latter sees exactly what the
// overlapped task would have seen, since that task starts only after
// every producer of the phase.
func (s *CG) runRecovery(overlapped, critical *engine.Prepared, after, phase []*taskrt.Handle) {
	afeir := s.cfg.Method == MethodAFEIR
	early := afeir && s.space.AnyFault()
	if early {
		overlapped.Submit(after)
	}
	s.rt.WaitAll(phase)
	if early || !s.resilient || !s.space.AnyFault() {
		return
	}
	if afeir {
		critical = overlapped
	}
	critical.Submit(nil)
	critical.Wait()
}

type boundaryPoint int

const (
	afterPhase1 boundaryPoint = iota
	afterPhase2
)

type boundaryAction int

const (
	actionContinue boundaryAction = iota
	actionSkipIteration
)

// boundary is a task-phase boundary: all workers are quiescent. The fault
// sites close until the next phase, pending data losses take effect, and
// the non-ABFT methods react to any visible fault.
func (s *CG) boundary(ver int64, _ boundaryPoint) boundaryAction {
	s.sites.Close()
	evs := s.space.ScramblePending()
	s.stats.FaultsSeen += len(evs)
	if !s.space.AnyFault() {
		return actionContinue
	}
	switch s.cfg.Method {
	case MethodFEIR, MethodAFEIR:
		// Handled by recovery tasks and reconcile.
		return actionContinue
	case MethodIdeal, MethodTrivial:
		// Blank-page forward recovery (§4.1): keep running.
		blankAllFailed(s.space)
		return actionContinue
	case MethodLossy:
		s.lossyRestart(ver)
		return actionSkipIteration
	case MethodCheckpoint:
		s.ck.rollback(s)
		return actionSkipIteration
	}
	return actionContinue
}

// blankAllFailed remaps every failed page of the space to a blank one and
// clears the fault bits — the Trivial forward recovery (§4.1).
func blankAllFailed(sp *pagemem.Space) {
	for _, v := range sp.Vectors() {
		for _, p := range v.FailedPages() {
			v.Remap(p)
			v.MarkRecovered(p)
		}
	}
}

// trueResidual computes ||b - A x|| / ||b|| sequentially, in the
// solver-owned scratch (no per-check allocation).
func (s *CG) trueResidual() float64 {
	r := s.resid
	s.a.MulVec(s.x.Data, r)
	sparse.Sub(s.b, r, r)
	return sparse.Norm2(r) / s.bnorm
}

// applyPrecond computes z = M⁻¹ g outside the steady state, unguarded, on
// the pool rather than block after block on the coordinator: the blocks
// are independent, so z is the sequential Apply's bit for bit.
func (s *CG) applyPrecond() {
	s.rt.WaitAll(s.eng.RawApplyPrecond("z", nil, s.pre, s.g.Data, s.z.Data))
}

// refreshResidual recomputes g = b - A x (and z, rho, eps) outside the task
// graph and forces a beta=0 step, restoring the g/x invariant after damage. Failed
// iterate pages that survived every recovery attempt are blanked first —
// the FallbackIgnore endgame.
func (s *CG) refreshResidual(ver int64) {
	for _, p := range s.x.FailedPages() {
		s.x.Remap(p)
		s.x.MarkRecovered(p)
		s.stats.Unrecovered++
	}
	s.xS.Fill(ver)
	s.a.MulVec(s.x.Data, s.g.Data)
	sparse.Sub(s.b, s.g.Data, s.g.Data)
	for p := 0; p < s.np; p++ {
		s.g.MarkRecovered(p)
	}
	s.gS.Fill(ver)
	if s.pre != nil {
		s.applyPrecond()
		for p := 0; p < s.np; p++ {
			s.z.MarkRecovered(p)
		}
		s.zS.Fill(ver)
		s.rho = sparse.Dot(s.z.Data, s.g.Data)
	}
	s.epsGG = sparse.Dot(s.g.Data, s.g.Data)
	s.beta = 0
	s.restartPending = true
}
