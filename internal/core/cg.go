package core

import (
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/pagemem"
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
	solverBase

	g, q, z *pagemem.Vector // z: the preconditioned residual (UsePrecond)
	d       [2]*pagemem.Vector

	// Per-page version stamps (see package comment).
	xS, gS, qS, zS engine.Stamps
	dS             [2]engine.Stamps

	dqPart, ggPart, zgPart *engine.Partial

	beta  float64
	epsGG float64 // <g, g>
	rho   float64 // <z, g> (preconditioned only)
	alpha float64

	doubleBuffer bool
	abft         bool // checksum-carrying kernels + verify-on-read

	// sdcInjBase/sdcDetBase snapshot the space's cumulative SDC counters
	// at Run start, so pooled instances report per-run deltas.
	sdcInjBase, sdcDetBase int64

	ck *checkpointer

	// restartPending requests a beta=0 step (d rebuilt from g alone) on
	// the next iteration, set by restart-style recoveries.
	restartPending bool

	// Recovery wiring (Figure 1(b)): r1 repairs the direction/matvec
	// pipeline before the α scalar, r2/r3 the iterate, residual and ε
	// partials before β and at the iteration's end (reconcile).
	dCur, dPrev engine.Vec // iteration ver's direction buffers
	tab1, tab2  repairTable

	// The prepared task graph (buildPrepared), replayed every iteration;
	// the bodies read what the coordinator writes before each submission
	// (the run-queue handoff provides the happens-before edge).
	prep struct {
		d, q, x, g *engine.Prepared // fused: q carries <d,q>, g carries ε (and z, <z,g>)
		z          *engine.Prepared // z = M⁻¹ g outside the steady state (preconditioned only)
		r1, r23    recoveryTask
		r1After    []*taskrt.Handle // d+q handles, listed once
		r23After   []*taskrt.Handle // x+g handles
	}
	iterBeta float64
}

// NewCG builds a resilient CG solver for the SPD system A x = b.
func NewCG(a *sparse.CSR, b []float64, cfg Config) (*CG, error) {
	s := &CG{}
	if err := s.init(a, b, cfg, true); err != nil {
		return nil, err
	}
	s.x, s.xS = s.stamped("x")
	s.g, s.gS = s.stamped("g")
	s.q, s.qS = s.stamped("q")
	s.d[0], s.dS[0] = s.stamped("d0")
	s.doubleBuffer = s.resilient
	if s.doubleBuffer {
		s.d[1], s.dS[1] = s.stamped("d1")
	} else {
		s.d[1], s.dS[1] = s.d[0], s.dS[0]
	}
	if cfg.UsePrecond {
		s.z, s.zS = s.stamped("z")
	}
	s.abft = cfg.ABFT && s.resilient
	s.dqPart = engine.NewPartial(s.np)
	s.ggPart = engine.NewPartial(s.np)
	s.zgPart = engine.NewPartial(s.np)
	if s.abft {
		for _, v := range s.DynamicVectors() {
			v.EnableChecksums()
		}
	}
	s.restartFrom = s.restart
	if cfg.Method == MethodCheckpoint {
		s.rollback = func() { s.ck.rollback(s) }
	}
	s.setVersion(0)
	s.wire()
	return s, nil
}

// wire declares CG's recovery (Figure 1(b), Table 1 rows 1 and 3): the
// r1 table repairs the phase-1 inputs at ver-1 and the direction/matvec
// pair at ver, the r2/r3 table the iterate/residual pair (and z) at ver
// and the late damage to d and q. dCur and dPrev are the solver's fields,
// which follow the double buffering. The <d,q> reductions read d and q,
// the ε reductions g and z.
func (s *CG) wire() {
	x, g, q, z := vec(s.x, s.xS), vec(s.g, s.gS), vec(s.q, s.qS), vec(s.z, s.zS)
	src := &g // the d update's input: g, or z when preconditioned
	rows := []repairRow{s.residualRow(&g, &x, -1, false)}
	if s.pre != nil {
		src = &z
		rows = append(rows, s.precondRow(&z, -1, &g, -1, false))
	}
	s.tab1.rows = append(rows,
		// The old direction, inverse through the old q that double
		// buffering preserves (needed only when β ≠ 0).
		repairRow{v: &s.dPrev, off: -1, kind: relInverse, try: func(p int) bool {
			return s.iterBeta != 0 && !s.dPrev.Current(p, s.ver-1) && s.rel.InverseDirection(s.dPrev, s.ver-1, q, s.ver-1, p)
		}},
		// d = src + βd', else inverse through q.
		repairRow{v: &s.dCur, kind: relForward, late: true, try: func(p int) bool {
			ver, beta := s.ver, s.iterBeta
			if s.dCur.Current(p, ver) || !src.Current(p, ver-1) || (beta != 0 && !s.dPrev.Current(p, ver-1)) {
				return false
			}
			lo, hi := s.layout.Range(p)
			if beta == 0 {
				copy(s.dCur.V.Data[lo:hi], src.V.Data[lo:hi])
			} else {
				sparse.XpbyOutRange(src.V.Data, beta, s.dPrev.V.Data, s.dCur.V.Data, lo, hi)
			}
			return s.forwarded(s.dCur, p, ver)
		}},
		s.directionRow(&s.dCur, 0, &q, 0, true),
		s.spmvRow(&q, 0, &s.dCur, 0, true),
		// §2.4: direction pages stuck because a connected page is lost
		// too, but with current q — the current direction, else the old
		// one through the old q.
		repairRow{v: &s.dCur, kind: relCoupled, late: true,
			member: func(p int) bool { return !s.dCur.Current(p, s.ver) && q.Current(p, s.ver) },
			solve:  func(group []int) bool { return s.rel.CoupledDirection(s.dCur, s.ver, q, s.ver, group) }},
		repairRow{v: &s.dPrev, off: -1, kind: relCoupled,
			member: func(p int) bool {
				return s.iterBeta != 0 && !s.dPrev.Current(p, s.ver-1) && q.Current(p, s.ver-1)
			},
			solve: func(group []int) bool { return s.rel.CoupledDirection(s.dPrev, s.ver-1, q, s.ver-1, group) }})
	s.tab1.fills = []backFill{{part: s.dqPart, x: &s.dCur, y: &q}}

	rows = []repairRow{
		// x: the update re-run when skipped, the inverse when lost.
		{v: &x, kind: relForward, try: func(p int) bool {
			if s.x.Failed(p) || s.xS[p].Load() != s.ver-1 || !s.dCur.Current(p, s.ver) {
				return false
			}
			lo, hi := s.layout.Range(p)
			sparse.AxpyRange(s.alpha, s.dCur.V.Data, s.x.Data, lo, hi)
			return s.forwarded(x, p, s.ver)
		}},
		s.iterateRow(&x, &g, 0),
		// g: b - A x when lost, the update re-run when skipped.
		s.residualRow(&g, &x, 0, true),
		{v: &g, kind: relForward, try: func(p int) bool {
			if s.g.Failed(p) || s.gS[p].Load() != s.ver-1 || !q.Current(p, s.ver) {
				return false
			}
			lo, hi := s.layout.Range(p)
			sparse.AxpyRange(-s.alpha, s.q.Data, s.g.Data, lo, hi)
			return s.forwarded(g, p, s.ver)
		}},
	}
	s.tab2.fills = []backFill{{part: s.ggPart, x: &g, y: &g}}
	if s.pre != nil {
		rows = append(rows, s.precondRow(&z, 0, &g, 0, true))
		s.tab2.fills = append(s.tab2.fills, backFill{part: s.zgPart, x: &z, y: &g})
	}
	// Late damage to the phase-1 outputs, needed next iteration.
	s.tab2.rows = append(rows, s.directionRow(&s.dCur, 0, &q, 0, false), s.spmvRow(&q, 0, &s.dCur, 0, false),
		repairRow{v: &x, kind: relCoupled,
			member: func(p int) bool { return s.x.Failed(p) && g.Current(p, s.ver) },
			solve:  func(group []int) bool { return s.rel.CoupledIterate(x, s.ver, g, s.ver, group) }})
}

// result folds the space's SDC counter deltas (relative to this Run's
// start) into the stats before the Result snapshot is built.
func (s *CG) result(it int) Result {
	s.stats.SDCInjected = int(s.space.SDCInjected() - s.sdcInjBase)
	s.stats.SDCDetected = int(s.space.SDCDetected() - s.sdcDetBase)
	return s.solverBase.result(it)
}

// Solution returns the iterate vector's backing array. Only valid after
// Run returned; the next Run overwrites it.
func (s *CG) Solution() []float64 { return s.x.Data }

// SetStop rebinds the stopping rule, Config.Tol and Config.MaxIter (zero
// for their defaults): Run reads both only as it starts, so a warm
// instance serves any request's tolerance and cap.
func (s *CG) SetStop(tol float64, maxIter int) { s.cfg.Tol, s.cfg.MaxIter = tol, maxIter }

// SetCancelled installs (or clears) the per-request cancellation poll —
// pooled instances carry a different request context each checkout.
func (s *CG) SetCancelled(f func() bool) { s.cfg.Cancelled = f }

// SetOnIteration installs (or clears) the per-request residual trace hook.
func (s *CG) SetOnIteration(f func(it int, relRes float64)) { s.cfg.OnIteration = f }

// Rebind replaces the right-hand side in place — the Relations layer and
// the prepared task bodies keep their reference to the same backing array,
// so a pooled instance serves a new RHS without rebuilding anything.
func (s *CG) Rebind(b []float64) error { return s.rebind(b) }

// vec couples a solver vector with its stamps for the engine operations.
func vec(v *pagemem.Vector, st engine.Stamps) engine.Vec { return engine.Vec{V: v, S: st} }

// Run executes the solve and returns its Result. Run may be called
// repeatedly (with Rebind in between to change the RHS); solverBase.start
// says when the prepared graph is built and when it is replayed.
func (s *CG) Run() (Result, error) {
	defer s.start(s.resilient, s.buildPrepared)()
	// What start leaves to CG, so a pooled instance serves a fresh
	// request: the scalar recurrences, the checkpointer, the SDC bases.
	s.alpha, s.beta, s.rho, s.epsGG = 0, 0, 0, 0
	if s.cfg.Method == MethodCheckpoint {
		disk := s.cfg.Disk
		if disk == nil {
			disk = NewSimDisk(0)
		}
		s.ck = newCheckpointer(disk, s.cfg.CheckpointInterval, s.cfg.ExpectedMTBE, s.a.N)
	}
	s.sdcInjBase, s.sdcDetBase = s.space.SDCInjected(), s.space.SDCDetected()

	tol := s.cfg.tol()
	maxIter := s.cfg.maxIter(s.a.N)

	// Initial state: x = 0, g = b, d built in iteration 0 via beta = 0.
	copy(s.g.Data, s.b)
	if s.pre != nil {
		s.prep.z.Run()
		s.rho = sparse.Dot(s.z.Data, s.g.Data)
	}
	s.epsGG = sparse.Dot(s.g.Data, s.g.Data)
	s.beta = 0
	s.restartPending = true // iteration 0 is a fresh start

	var t int
	for t = 0; t < maxIter; t++ {
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			return s.result(t), ErrCancelled
		}
		rel := relFromEpsilon(s.epsGG, s.bnorm)
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(t, rel)
		}
		if rel < tol {
			// The recurrence claims convergence: check the true residual.
			// Exact forward recovery preserves the recurrence, but an
			// undetected flip, or a blank page of Trivial, can
			// desynchronise g from b - Ax.
			if ok, err := s.accept(tol); ok || err != nil {
				return s.result(t), err
			}
			// Recurrence said converged but the true residual disagrees:
			// refresh the residual and keep iterating — within the SAME
			// iteration index, so the version stamps stay aligned.
			s.refreshResidual(int64(t) - 1)
			s.stats.Restarts++
		}

		if s.ck != nil {
			s.ck.maybeWrite(s, t, time.Since(s.began))
		}

		// ---------------- Phase 1: d, q, <d,q> (+ r1) ----------------
		ver := int64(t)
		if s.runPhase1(ver) {
			continue
		}
		dq, _ := s.sum(s.dqPart)
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
		if s.runPhase2(ver) {
			continue
		}
		gg, _ := s.sum(s.ggPart)
		if s.pre != nil {
			zg, _ := s.sum(s.zgPart)
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
			s.reconcile(&s.tab2)
		}
	}

	return s.result(t), nil
}

// buildPrepared constructs CG's task graph once per engine: every
// iteration replays the same handles (taskrt.Resubmit), so the hot loop
// allocates nothing. The bodies guard and stamp each page through the
// engine's *Page helpers, or inline where ABFT folds a checksum in; they
// read ver, iterBeta, alpha and dCur/dPrev, which the coordinator sets
// before submission.
func (s *CG) buildPrepared() {
	e := s.eng
	prio := s.cfg.TaskPriority
	// d = src + β d' (src = g, or z when preconditioned). Full overwrite:
	// skipped pages keep their old version, produced pages revalidate.
	//due:hotpath
	s.prep.d = e.Prepare("d", prio, func(_, pLo, pHi int) {
		ver, beta := s.ver, s.iterBeta
		dCur, dPrev := s.dCur, s.dPrev
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
			s.produced(dCur, p, true)
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
		ver := s.ver
		in := engine.In(s.dCur, ver)
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
		ver, alpha := s.ver, s.alpha
		dCur := s.dCur
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
				s.produced(xV, p, false)
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
		ver, alpha := s.ver, s.alpha
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
	// z = M⁻¹ g outside the steady state (a Run's start, a refreshed
	// residual), unguarded; the blocks are independent, so z is the
	// sequential Apply's bit for bit.
	if s.pre != nil {
		//due:hotpath
		s.prep.z = s.eng.PreparePages("z", prio, func(p, _, _ int) { _ = s.pre.ApplyBlock(p, s.g.Data, s.z.Data) })
	}
	s.prep.r1 = s.prepareRecovery("r1", prio, &s.tab1)
	s.prep.r23 = s.prepareRecovery("r2r3", prio, &s.tab2)

	s.prep.r1After = engine.Handles(s.prep.d, s.prep.q)
	s.prep.r23After = engine.Handles(s.prep.x, s.prep.g)
}

// runPhase1 replays the prepared d-update and fused q/<d,q> tasks and
// ends the phase (r1 if a page is damaged, the boundary); it reports
// whether the iteration was consumed.
func (s *CG) runPhase1(ver int64) bool {
	s.setVersion(ver)
	s.iterBeta = s.beta
	if s.restartPending {
		s.iterBeta = 0
	}
	s.dqPart.ResetMissing()
	s.sites.Open(int(ver))

	engine.Chain(s.prep.d, s.prep.q)
	return s.endPhase(s.prep.r1, nil, s.prep.r1After, s.prep.r1After)
}

// runPhase2 replays the prepared x update and the fused g/ε (z, <z,g>)
// tasks — one wave — and ends the phase like runPhase1.
func (s *CG) runPhase2(ver int64) bool {
	s.setVersion(ver)
	s.ggPart.ResetMissing()
	if s.pre != nil {
		s.zgPart.ResetMissing()
	}
	s.sites.Open(int(ver))

	s.prep.x.Submit(nil)
	s.prep.g.Submit(nil)
	return s.endPhase(s.prep.r23, nil, s.prep.r23After, s.prep.r23After)
}

// setVersion makes iteration ver the running one: the version rows and
// task bodies read, and its direction buffers — Listing 2's double
// buffering, or the one buffer of the unguarded methods (d[1] is d[0]).
func (s *CG) setVersion(ver int64) {
	cur, prev := ver%2, (ver+1)%2
	s.ver = ver
	s.dCur, s.dPrev = vec(s.d[cur], s.dS[cur]), vec(s.d[prev], s.dS[prev])
}

// restart is CG's restart from x after a Lossy step: every fault bit
// cleared, every stamp at ver, the residual refreshed.
func (s *CG) restart(ver int64) {
	s.space.ClearAll()
	s.fillStamps(ver)
	s.refreshResidual(ver)
}

// refreshResidual recomputes g = b - A x (and z, rho, eps) outside the task
// graph and forces a beta=0 step, restoring the g/x invariant after damage.
func (s *CG) refreshResidual(ver int64) {
	s.xS.Fill(ver)
	s.a.MulVec(s.x.Data, s.g.Data)
	sparse.Sub(s.b, s.g.Data, s.g.Data)
	for p := 0; p < s.np; p++ {
		s.g.MarkRecovered(p)
	}
	s.gS.Fill(ver)
	if s.pre != nil {
		s.prep.z.Run()
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
