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
	s := &CG{}
	if err := s.init(a, b, cfg, true); err != nil {
		return nil, err
	}
	s.x = s.space.AddVector("x")
	s.g = s.space.AddVector("g")
	s.q = s.space.AddVector("q")
	s.d[0] = s.space.AddVector("d0")
	s.xS = engine.NewStamps(s.np)
	s.gS = engine.NewStamps(s.np)
	s.qS = engine.NewStamps(s.np)
	s.dS[0] = engine.NewStamps(s.np)
	s.doubleBuffer = s.resilient
	if s.doubleBuffer {
		s.d[1] = s.space.AddVector("d1")
		s.dS[1] = engine.NewStamps(s.np)
	} else {
		s.d[1] = s.d[0]
		s.dS[1] = s.dS[0]
	}
	if cfg.UsePrecond {
		s.z = s.space.AddVector("z")
		s.zS = engine.NewStamps(s.np)
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
	return s, nil
}

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

// Rebind replaces the right-hand side in place — the Relations layer and
// the prepared task bodies keep their reference to the same backing array,
// so a pooled instance serves a new RHS without rebuilding anything.
func (s *CG) Rebind(b []float64) error { return s.rebind(b) }

// fillStamps stores ver into every page stamp of every vector.
func (s *CG) fillStamps(ver int64) {
	for _, st := range []engine.Stamps{s.xS, s.gS, s.qS, s.dS[0], s.dS[1], s.zS} {
		st.Fill(ver)
	}
}

// resetState returns the instance to its pre-Run state so a pooled solver
// can serve a fresh request: failed pages remapped, vectors zeroed, stamps
// and scalar recurrences cleared, counters rezeroed, a fresh checkpointer.
// Idempotent on a fresh instance.
func (s *CG) resetState() {
	blankAllFailed(s.space)
	for _, v := range s.DynamicVectors() {
		clear(v.Data)
		v.InvalidateChecksums()
	}
	s.fillStamps(-1)
	s.stats = Stats{}
	s.alpha, s.beta, s.rho, s.epsGG = 0, 0, 0, 0
	if s.cfg.Method == MethodCheckpoint {
		disk := s.cfg.Disk
		if disk == nil {
			disk = NewSimDisk(0)
		}
		s.ck = newCheckpointer(disk, s.cfg.CheckpointInterval, s.cfg.ExpectedMTBE, s.a.N)
	}
}

// vec couples a solver vector with its stamps for the engine operations.
func vec(v *pagemem.Vector, st engine.Stamps) engine.Vec { return engine.Vec{V: v, S: st} }

// buffers returns iteration t's current and previous direction buffers:
// Listing 2's double buffering, or the one buffer of the unguarded
// methods.
func (s *CG) buffers(t int64) (cur, prev int) {
	if !s.doubleBuffer {
		return 0, 0
	}
	return int(t % 2), int((t + 1) % 2)
}

// Run executes the solve and returns its Result. Run may be called
// repeatedly (with Rebind in between to change the RHS): with Config.RT
// set, the engine and prepared task graphs are built on the first Run and
// replayed by every later one; with a solver-owned pool they are rebuilt
// per Run (and the pool closed after).
func (s *CG) Run() (Result, error) {
	start := time.Now()
	if s.eng == nil {
		// A private pool is opened (and closed) per Run, Config.RT once
		// per instance: every later Run replays the same prepared graph.
		defer s.open(s.resilient)()
		s.buildPrepared()
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
			return s.result(t, false, 0, start), ErrCancelled
		}
		rel := relFromEpsilon(s.epsGG, s.bnorm)
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(t, rel)
		}
		if rel < tol {
			// The recurrence claims convergence: check the true residual.
			// Exact forward recovery preserves the recurrence, but ignored
			// unrecoverable errors can desynchronise g from b - Ax.
			f, ok, err := s.accept(tol)
			if ok {
				final, converged = f, true
				break
			}
			if err != nil {
				s.captureSDC()
				return s.result(t, false, 0, start), err
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
		if s.boundary(ver) {
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
		if s.boundary(ver) {
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
	return s.result(t, converged, final, start), nil
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
	cur, prev := s.buffers(ver)
	beta := s.beta
	if s.restartPending {
		beta = 0
	}
	s.iterVer, s.iterBeta, s.iterCur, s.iterPrev = ver, beta, cur, prev
	s.dqPart.ResetMissing()
	s.sites.Open(int(ver))

	dH := s.prep.d.Submit(nil)
	s.prep.q.Submit(dH)
	s.runRecovery(s.prep.r1o, s.prep.r1c, s.prep.r1After, s.prep.phase1)
}

// runPhase2 replays the prepared x update and the fused g/ε (z, <z,g>)
// tasks — one wave —, waits, and runs the r2/r3 recovery if a page is
// damaged.
func (s *CG) runPhase2(ver int64) {
	s.iterVer = ver
	s.iterCur, _ = s.buffers(ver)
	s.ggPart.ResetMissing()
	if s.pre != nil {
		s.zgPart.ResetMissing()
	}
	s.sites.Open(int(ver))

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

// boundary is a task-phase boundary: all workers are quiescent. The fault
// sites close until the next phase, pending data losses take effect, and
// the non-exact methods react to any visible fault. It reports whether a
// restart-style recovery consumed the iteration.
func (s *CG) boundary(ver int64) (skip bool) {
	s.sites.Close()
	s.applyPending()
	if !s.space.AnyFault() {
		return false
	}
	switch s.cfg.Method {
	case MethodIdeal, MethodTrivial:
		// Blank-page forward recovery (§4.1): keep running.
		blankAllFailed(s.space)
	case MethodLossy:
		s.lossyRestart(ver)
		return true
	case MethodCheckpoint:
		s.ck.rollback(s)
		return true
	}
	// FEIR/AFEIR: handled by the recovery tasks and reconcile.
	return false
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
