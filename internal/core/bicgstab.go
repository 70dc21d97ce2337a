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

// BiCGStabSolver is the task-parallel resilient BiCGStab (Listing 3)
// protected with the redundancy relations of §3.1.2, running its
// iterations as chunked task graphs on the shared internal/engine — the
// same strip-mined decomposition, version stamps and recovery scheduling
// as the flagship CG, so FEIR (critical-path) and AFEIR (overlapped,
// Fig 2b) recovery both apply.
//
// The direction d is double-buffered (as in CG, Listing 2); the shadow
// residual r̂0 lives in reliably-stored constant memory (§2.1). The
// intermediate vectors s and t are fully regenerated every iteration, so
// their losses heal by overwrite; losses in x, g, d and q are repaired
// exactly through
//
//	g = b - A x            (conserved, verified in §3.1.2)
//	x = A⁻¹(b - g)         (inverse, LU diagonal blocks: A may be non-SPD)
//	q = A d  /  d = A⁻¹ q  (forward / inverse, with the old q preserved
//	                        by double buffering)
//	d = g + β(d' - ω q)    (forward, scalars live in reliable memory)
//
// Versioning: iteration t consumes x, g and the incoming direction at
// version t-1 and produces q, s, t, x, g and the outgoing direction at
// version t. The q produced at t pairs with the direction produced at
// t-1, so at the next iteration boundary the OLD direction buffer is
// still recoverable as d = A⁻¹q — the same trick CG plays.
//
// With Config.UsePrecond the solver runs the paper's preconditioned
// BiCGStab (Listing 6): the block-Jacobi M⁻¹ is applied to the search
// directions, d̂ = M⁻¹ d and ŝ = M⁻¹ s, through the engine's guarded
// apply-M⁻¹ page operation; the matvecs become q = A d̂ and t = A ŝ and
// the iterate update x += α d̂ + ω ŝ. g remains the TRUE residual
// b - A x, so every unpreconditioned redundancy relation above survives
// verbatim, and the preconditioned vectors gain their own §3.2
// relations: forward d̂ = M⁻¹ d (partial application, page-local by block
// diagonality), inverse d = M d̂, and the inverse d̂ = A⁻¹ q through the
// factorized diagonal blocks.
type BiCGStabSolver struct {
	solverBase

	g, q *pagemem.Vector
	d    [2]*pagemem.Vector
	s, t *pagemem.Vector
	rhat []float64

	// Preconditioned variant (Listing 6): d̂ = M⁻¹ d and ŝ = M⁻¹ s, nil
	// otherwise.
	dhat, shat *pagemem.Vector

	xS, gS, qS, sS, tS engine.Stamps
	dS                 [2]engine.Stamps
	dhatS, shatS       engine.Stamps

	qrPart, ttPart, tsPart, rhoPart, ggPart *engine.Partial

	// Scalars of the current and last iteration. They live outside the
	// page fault domain (the error model only kills memory pages, §5.3).
	alpha, omega, beta  float64
	rho                 float64
	epsGG               float64 // <g,g> from the phase-3 reduction
	lastBeta, lastOmega float64
	restartPending      bool
}

// NewBiCGStab builds a resilient BiCGStab solver. MethodFEIR and
// MethodAFEIR get exact task-overlapped recovery; MethodLossy interpolates
// the iterate and restarts; the remaining methods run unguarded with
// blank-page forward recovery.
func NewBiCGStab(a *sparse.CSR, b []float64, cfg Config) (*BiCGStabSolver, error) {
	sv := &BiCGStabSolver{}
	if err := sv.init(a, b, cfg, false); err != nil { // LU: general A
		return nil, err
	}
	if err := cgOnlyFallback("bicgstab", cfg); err != nil {
		return nil, err
	}
	sv.x = sv.space.AddVector("x")
	sv.g = sv.space.AddVector("g")
	sv.q = sv.space.AddVector("q")
	sv.d[0] = sv.space.AddVector("d0")
	sv.d[1] = sv.space.AddVector("d1")
	sv.s = sv.space.AddVector("s")
	sv.t = sv.space.AddVector("t")
	sv.rhat = make([]float64, a.N)
	if cfg.UsePrecond {
		sv.dhat = sv.space.AddVector("dh")
		sv.shat = sv.space.AddVector("sh")
		sv.dhatS = engine.NewStamps(sv.np)
		sv.shatS = engine.NewStamps(sv.np)
	}
	sv.xS = engine.NewStamps(sv.np)
	sv.gS = engine.NewStamps(sv.np)
	sv.qS = engine.NewStamps(sv.np)
	sv.sS = engine.NewStamps(sv.np)
	sv.tS = engine.NewStamps(sv.np)
	sv.dS[0] = engine.NewStamps(sv.np)
	sv.dS[1] = engine.NewStamps(sv.np)
	sv.qrPart = engine.NewPartial(sv.np)
	sv.ttPart = engine.NewPartial(sv.np)
	sv.tsPart = engine.NewPartial(sv.np)
	sv.rhoPart = engine.NewPartial(sv.np)
	sv.ggPart = engine.NewPartial(sv.np)
	return sv, nil
}

// DynamicVectors lists the vectors injections cover (§5.3).
func (sv *BiCGStabSolver) DynamicVectors() []*pagemem.Vector {
	vs := []*pagemem.Vector{sv.x, sv.g, sv.q, sv.d[0], sv.d[1], sv.s, sv.t}
	if sv.pre != nil {
		vs = append(vs, sv.dhat, sv.shat)
	}
	return vs
}

// ErrRecurrenceBreakdown reports a degenerate recurrence.
var ErrRecurrenceBreakdown = fmt.Errorf("core: recurrence breakdown")

// Run executes the resilient solve. It returns the result, the solution
// vector and the resilience statistics.
func (sv *BiCGStabSolver) Run() (Result, []float64, error) {
	start := time.Now()
	defer sv.open(sv.resilient)()

	tol := sv.cfg.tol()
	maxIter := sv.cfg.maxIter(sv.a.N)

	// Initial state (x = 0): g = r̂0 = b; the direction consumed by
	// iteration 0 goes into d[1] (its dIn buffer) at version -1, matching
	// the initial stamps.
	copy(sv.g.Data, sv.b)
	copy(sv.rhat, sv.b)
	copy(sv.d[1].Data, sv.b)
	sv.rho = sparse.Dot(sv.g.Data, sv.rhat)
	sv.epsGG = sparse.Dot(sv.g.Data, sv.g.Data)

	var it int
	converged := false
	var final float64 // the true residual of the check that accepted x
	for it = 0; it < maxIter; it++ {
		sv.sites.Close() // the convergence check and restarts below are no sites
		if sv.cfg.Cancelled != nil && sv.cfg.Cancelled() {
			return sv.result(it, false, 0, start), sv.x.Data, ErrCancelled
		}
		ver := int64(it)
		cur, prev := it%2, (it+1)%2
		dIn := vec(sv.d[prev], sv.dS[prev])
		dOut := vec(sv.d[cur], sv.dS[cur])

		// The residual norm comes from the <g,g> reduction of the
		// previous iteration's phase 3 — no sequential pass over g.
		rel := relFromEpsilon(sv.epsGG, sv.bnorm)
		if sv.cfg.OnIteration != nil {
			sv.cfg.OnIteration(it, rel)
		}
		if rel < tol {
			f, ok, err := sv.accept(tol)
			if ok {
				final, converged = f, true
				break
			}
			if err != nil {
				return sv.result(it, false, 0, start), sv.x.Data, err
			}
			// Recurrence lied (possible after ignored unrecoverable
			// errors): rebuild the recurrence from x and keep going.
			// Stamp at ver so THIS loop index is consumed by the
			// restart and the next iteration reads a consistent state.
			sv.restart(ver)
			continue
		}

		// Iteration boundary: pending losses take effect, everything is
		// repaired (or the method's fallback applies) before the phases.
		if !sv.boundaryRecover(ver) {
			continue // restart-style recovery consumed this iteration
		}
		if sv.restartPending {
			sv.restart(ver - 1)
			sv.restartPending = false
		}
		sv.sites.Open(it)

		// ---------------- Phase 1: [d̂ = M⁻¹d,] q = A d̂, <q, r̂> -------
		sv.qrPart.ResetMissing()
		qSrc, qSrcVer := dIn, ver-1
		var preH []*taskrt.Handle
		if sv.pre != nil {
			dhOp := engine.Operand{Vec: vec(sv.dhat, sv.dhatS), Ver: ver}
			preH = sv.eng.ApplyPrecond("dh", nil, sv.pre, engine.In(dIn, ver-1), dhOp)
			qSrc, qSrcVer = dhOp.Vec, ver
		}
		qOp := engine.Operand{Vec: vec(sv.q, sv.qS), Ver: ver}
		// Fused q = A d̂ with the <q, r̂0> partials: one task per chunk
		// instead of the SpMV + reduction pair.
		qH := sv.eng.SpMVDotReliable("q,<q,r>", preH, engine.In(qSrc, qSrcVer), qOp, sv.rhat, sv.qrPart)
		phase1 := append(append([]*taskrt.Handle{}, preH...), qH...)
		sv.runRecovery("r1", phase1, func(allowLate bool) {
			sv.recoverPhase(ver, cur, bPhase1, allowLate)
		}, phase1)
		sv.applyPending()
		qr, missQR := sv.qrPart.SumAvailable()
		sv.stats.ContributionsLost += missQR
		if qr == 0 || math.IsNaN(qr) || math.IsNaN(sv.rho) {
			if missQR == 0 && !sv.space.AnyFault() {
				return sv.result(it, false, 0, start), sv.x.Data, ErrRecurrenceBreakdown
			}
			sv.restartPending = true
			continue
		}
		sv.alpha = sv.rho / qr

		// ---------------- Phase 2: s, [ŝ = M⁻¹s,] t = A ŝ, <t,t>, <t,s>
		alpha := sv.alpha
		sv.ttPart.ResetMissing()
		sv.tsPart.ResetMissing()
		sOp := engine.Operand{Vec: vec(sv.s, sv.sS), Ver: ver}
		sH := sv.eng.PageOp("s", nil,
			[]engine.Operand{engine.In(vec(sv.g, sv.gS), ver-1), engine.In(qOp.Vec, ver)},
			&sOp, true, func(p, lo, hi int) bool {
				// s = g - α q (full overwrite heals s losses).
				sparse.XpbyOutRange(sv.g.Data, -alpha, sv.q.Data, sv.s.Data, lo, hi)
				return true
			})
		tSrc := sOp.Vec
		tAfter := sH
		var shH []*taskrt.Handle
		if sv.pre != nil {
			shOp := engine.Operand{Vec: vec(sv.shat, sv.shatS), Ver: ver}
			shH = sv.eng.ApplyPrecond("sh", sH, sv.pre, engine.In(sOp.Vec, ver), shOp)
			tSrc = shOp.Vec
			tAfter = shH
		}
		tOp := engine.Operand{Vec: vec(sv.t, sv.tS), Ver: ver}
		// Fused t = A ŝ with <t,t> (and, unpreconditioned, <t,s>: there
		// the SpMV input IS s, so both reductions ride the same pass;
		// preconditioned, <t,s> pairs t with a different vector than the
		// SpMV input ŝ and stays a separate reduction).
		var tH, tsH []*taskrt.Handle
		if sv.pre == nil {
			tH = sv.eng.SpMVDot("t,<t,s>,<t,t>", tAfter, engine.In(tSrc, ver), tOp, sv.tsPart, sv.ttPart)
		} else {
			tH = sv.eng.SpMVDot("t,<t,t>", tAfter, engine.In(tSrc, ver), tOp, nil, sv.ttPart)
			tsH = sv.eng.DotPartials("<t,s>", tH, engine.In(tOp.Vec, ver), engine.In(sOp.Vec, ver), sv.tsPart)
		}
		phase2 := append(append(append([]*taskrt.Handle{}, sH...), shH...), tH...)
		sv.runRecovery("r2", phase2, func(allowLate bool) {
			sv.recoverPhase(ver, cur, bPhase2, allowLate)
		}, append(append([]*taskrt.Handle{}, phase2...), tsH...))
		sv.applyPending()
		tt, missTT := sv.ttPart.SumAvailable()
		ts, missTS := sv.tsPart.SumAvailable()
		sv.stats.ContributionsLost += missTT + missTS
		if tt == 0 {
			if missTT > 0 || sv.space.AnyFault() {
				sv.restartPending = true
				continue
			}
			// Lucky breakdown: s is already the residual of the updated x.
			if sv.pre != nil {
				sparse.Axpy(alpha, sv.dhat.Data, sv.x.Data)
			} else {
				sparse.Axpy(alpha, sv.d[prev].Data, sv.x.Data)
			}
			copy(sv.g.Data, sv.s.Data)
			it++
			converged = sparse.Norm2(sv.g.Data)/sv.bnorm < tol
			break
		}
		sv.omega = ts / tt

		// ---------------- Phase 3: x, g, <g, r̂> ----------------------
		omega := sv.omega
		sv.rhoPart.ResetMissing()
		// Unpreconditioned: x += α d + ω s. Preconditioned (Listing 6):
		// x += α d̂ + ω ŝ.
		xDir, xDirVer := dIn, ver-1
		xStep := sOp.Vec
		if sv.pre != nil {
			xDir, xDirVer = vec(sv.dhat, sv.dhatS), ver
			xStep = vec(sv.shat, sv.shatS)
		}
		xOp := engine.Operand{Vec: vec(sv.x, sv.xS), Ver: ver}
		xH := sv.eng.PageOp("x", nil,
			[]engine.Operand{engine.In(xOp.Vec, ver-1), engine.In(xDir, xDirVer), engine.In(xStep, ver)},
			&xOp, false, func(p, lo, hi int) bool {
				// Read-modify-write: late poisons stay detected.
				sparse.Axpy2Range(alpha, xDir.V.Data, omega, xStep.V.Data, sv.x.Data, lo, hi)
				return true
			})
		sv.ggPart.ResetMissing()
		gOp := engine.Operand{Vec: vec(sv.g, sv.gS), Ver: ver}
		gH := sv.eng.PageOp("g,<g,r>,<g,g>", nil,
			[]engine.Operand{engine.In(sOp.Vec, ver), engine.In(tOp.Vec, ver)},
			&gOp, true, func(p, lo, hi int) bool {
				// g = s - ω t fused with the <g,r̂0> and <g,g> partials in
				// one pass. Full overwrite revalidates g, so whenever the
				// body ran the unfused reductions' currency guard would
				// have held; a skipped page leaves both slots missing,
				// exactly as the stale-stamp guard would.
				ow, oo := sparse.XpbyDotNormRange(sv.s.Data, -omega, sv.t.Data, sv.g.Data, sv.rhat, lo, hi)
				sv.rhoPart.Store(p, ow)
				sv.ggPart.Store(p, oo)
				return true
			})
		sv.runRecovery("r3", append(append([]*taskrt.Handle{}, xH...), gH...), func(allowLate bool) {
			sv.recoverPhase(ver, cur, bPhase3, allowLate)
		}, append(append([]*taskrt.Handle{}, xH...), gH...))
		sv.applyPending()
		rhoNew, missRho := sv.rhoPart.SumAvailable()
		sv.stats.ContributionsLost += missRho
		gg, missGG := sv.ggPart.SumAvailable()
		sv.stats.ContributionsLost += missGG
		sv.epsGG = gg
		if rhoBoundaryBreakdown(sv.rho, omega, rhoNew, gg, sv.bnorm, tol) {
			if missRho == 0 && !sv.space.AnyFault() {
				return sv.result(it, false, 0, start), sv.x.Data, ErrRecurrenceBreakdown
			}
			sv.restartPending = true
			continue
		}
		sv.beta = rhoNew / sv.rho * alpha / omega

		// ---------------- Phase 4: d = g + β(d' - ω q) ----------------
		beta := sv.beta
		dOutOp := engine.Operand{Vec: dOut, Ver: ver}
		dH := sv.eng.PageOp("d", nil,
			[]engine.Operand{engine.In(gOp.Vec, ver), engine.In(dIn, ver-1), engine.In(qOp.Vec, ver)},
			&dOutOp, true, func(p, lo, hi int) bool {
				sparse.XpbyzOutRange(sv.g.Data, beta, sv.d[prev].Data, omega, sv.q.Data, sv.d[cur].Data, lo, hi)
				return true
			})
		sv.runRecovery("r4", dH, func(allowLate bool) {
			sv.recoverPhase(ver, cur, bPhase4, true)
		}, dH)
		sv.applyPending()

		sv.rho = rhoNew
		sv.lastBeta, sv.lastOmega = beta, omega
	}
	return sv.result(it, converged, final, start), sv.x.Data, nil
}

// runRecovery waits for every task of the phase (waitFor) and runs the
// phase recovery only once a page is damaged, by CG.runRecovery's rule:
// AFEIR overlaps it after the producer tasks (after, Fig 2b) when the
// damage predates the phase; damage shown during the phase is repaired
// once the phase finished (FEIR with late rights, AFEIR without).
//
//due:recovery
func (sv *BiCGStabSolver) runRecovery(label string, after []*taskrt.Handle, fn func(allowLate bool), waitFor []*taskrt.Handle) {
	var r *taskrt.Handle
	if sv.cfg.Method == MethodAFEIR && sv.space.AnyFault() {
		r = sv.eng.OverlappedRecovery(label, after, func() { fn(false) })
	}
	sv.rt.WaitAll(waitFor)
	switch {
	case r != nil:
		sv.rt.Wait(r)
	case !sv.resilient || !sv.space.AnyFault():
	case sv.cfg.Method == MethodFEIR:
		sv.eng.CriticalRecovery(label, 0, func() { fn(true) }) // BiCGStab computes at tier 0
	default:
		sv.rt.Wait(sv.eng.OverlappedRecovery(label, nil, func() { fn(false) }))
	}
}

// rhoBoundaryBreakdown reports whether the phase-3 boundary scalars
// indicate a recurrence breakdown. Besides the classic ω == 0 / stale
// ρ == 0 / NaN cases, a zero NEW rho is one too: it flows into
// β = ρ'/ρ · α/ω as a harmless-looking zero, but the ρ' carried into the
// next iteration's α = ρ'/<q,r̂> then stalls the recurrence — so it is
// detected at this boundary like ω == 0. Exception: a zero ρ' with the
// residual already below tolerance is just convergence, which the loop
// head reports cleanly.
func rhoBoundaryBreakdown(rho, omega, rhoNew, gg, bnorm, tol float64) bool {
	if math.IsNaN(rhoNew) || rho == 0 || omega == 0 {
		return true
	}
	return rhoNew == 0 && relFromEpsilon(gg, bnorm) >= tol
}

// restart rebuilds the whole recurrence from the current iterate: failed
// x pages are blanked (they survived every recovery attempt), g = b - Ax,
// r̂0 = g, d = g, ρ = <g,g>, with every stamp forced to ver so the next
// iteration (ver+1) consumes a consistent state.
func (sv *BiCGStabSolver) restart(ver int64) {
	for _, p := range sv.x.FailedPages() {
		sv.x.Remap(p)
		sv.x.MarkRecovered(p)
		sv.stats.Unrecovered++
	}
	sv.space.ClearAll()
	sv.a.MulVec(sv.x.Data, sv.g.Data)
	sparse.Sub(sv.b, sv.g.Data, sv.g.Data)
	copy(sv.rhat, sv.g.Data)
	// Both buffers get the fresh direction: whichever one the next
	// iteration treats as dIn is then valid.
	copy(sv.d[0].Data, sv.g.Data)
	copy(sv.d[1].Data, sv.g.Data)
	if sv.pre != nil {
		// Preconditioned pairing: q = A d̂ with d̂ = M⁻¹ d.
		sv.pre.Apply(sv.d[0].Data, sv.dhat.Data)
		sv.a.MulVec(sv.dhat.Data, sv.q.Data)
		sv.dhatS.Fill(ver)
		sv.shatS.Fill(ver)
	} else {
		sv.a.MulVec(sv.d[0].Data, sv.q.Data) // keep the q = A d pairing
	}
	sv.rho = sparse.Dot(sv.g.Data, sv.rhat)
	sv.epsGG = sv.rho // r̂0 = g, so <g,g> = <g,r̂0>
	sv.lastBeta, sv.lastOmega = 0, 0
	sv.xS.Fill(ver)
	sv.gS.Fill(ver)
	sv.qS.Fill(ver)
	sv.sS.Fill(ver)
	sv.tS.Fill(ver)
	sv.dS[0].Fill(ver)
	sv.dS[1].Fill(ver)
	sv.stats.Restarts++
}

// boundaryRecover repairs the carried state at the start of iteration ver:
// x, g and the incoming direction at ver-1, q at ver-1 (paired with the
// outgoing buffer's ver-2 content), s and t by blanking (they regenerate).
// Returns false when a restart-style fallback consumed the iteration.
func (sv *BiCGStabSolver) boundaryRecover(ver int64) bool {
	sv.applyPending()
	if !sv.space.AnyFault() {
		return true
	}
	it := int(ver)
	cur, prev := it%2, (it+1)%2
	dIn := vec(sv.d[prev], sv.dS[prev]) // produced at ver-1, consumed now
	dOld := vec(sv.d[cur], sv.dS[cur])  // produced at ver-2, paired with q
	switch sv.cfg.Method {
	case MethodFEIR, MethodAFEIR:
		// Exact repairs below.
	case MethodLossy:
		sv.interpolateLostIterate(sv.x.FailedPages())
		// Stamp at ver: this loop index is consumed by the restart and
		// the next iteration reads a consistent state.
		sv.restart(ver)
		return false
	default:
		// Blank-page forward recovery (§4.1): keep running.
		blankAllFailed(sv.space)
		return true
	}
	// s and t (and ŝ) are rebuilt before use: just blank them.
	scratchVecs := []*pagemem.Vector{sv.s, sv.t}
	if sv.pre != nil {
		scratchVecs = append(scratchVecs, sv.shat)
	}
	for _, v := range scratchVecs {
		for _, p := range v.FailedPages() {
			v.Remap(p)
			v.MarkRecovered(p)
		}
	}
	gV, xV, qV := vec(sv.g, sv.gS), vec(sv.x, sv.xS), vec(sv.q, sv.qS)
	var dhatV engine.Vec
	if sv.pre != nil {
		dhatV = vec(sv.dhat, sv.dhatS)
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for p := 0; p < sv.np; p++ {
			if sv.g.Failed(p) && sv.rel.ForwardResidual(gV, sv.gS[p].Load(), xV, ver-1, p) {
				progress = true
			}
			if sv.x.Failed(p) && sv.rel.InverseIterate(xV, ver-1, gV, ver-1, p) {
				progress = true
			}
			if sv.pre == nil {
				if dOld.V.Failed(p) && sv.rel.InverseDirection(dOld, ver-2, qV, ver-1, p) {
					progress = true
				}
				if sv.q.Failed(p) && sv.rel.ForwardSpMV(qV, ver-1, dOld, ver-2, p) {
					progress = true
				}
			} else {
				// Preconditioned pairing: the q produced at ver-1 is
				// A d̂(ver-1) with d̂ = M⁻¹ dOld(ver-2). d̂ repairs forward
				// by partial application or inverse through q; dOld by the
				// forward product d = M d̂; q by re-running the SpMV on d̂.
				if sv.dhat.Failed(p) {
					if sv.rel.PrecondApply(sv.pre, dhatV, ver-1, dOld, ver-2, p) {
						progress = true
					} else if sv.rel.InverseDirection(dhatV, ver-1, qV, ver-1, p) {
						progress = true
					}
				}
				if dOld.V.Failed(p) && sv.rel.PrecondUnapply(sv.pre, dOld, ver-2, dhatV, ver-1, p) {
					progress = true
				}
				if sv.q.Failed(p) && sv.rel.ForwardSpMV(qV, ver-1, dhatV, ver-1, p) {
					progress = true
				}
			}
			// dIn = g + lastβ (dOld - lastω q): re-run the forward update
			// (scalars live in reliable memory). After a restart the
			// direction is just g.
			if dIn.V.Failed(p) && gV.Current(p, ver-1) {
				lo, hi := sv.layout.Range(p)
				if sv.lastBeta == 0 {
					copy(dIn.V.Data[lo:hi], sv.g.Data[lo:hi])
					sv.rel.MarkRecovered(dIn, p, ver-1)
					sv.stats.RecoveredForward++
					progress = true
				} else if qV.Current(p, ver-1) && dOld.Current(p, ver-2) {
					sparse.XpbyzOutRange(sv.g.Data, sv.lastBeta, dOld.V.Data, sv.lastOmega, sv.q.Data, dIn.V.Data, lo, hi)
					sv.rel.MarkRecovered(dIn, p, ver-1)
					sv.stats.RecoveredForward++
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	if sv.space.AnyFault() {
		// Simultaneous errors on related data (§2.4): rebuild from x.
		// Stamped at ver — this loop index is consumed by the restart.
		sv.restart(ver)
		return false
	}
	return true
}

type bicgPhase int

const (
	bPhase1 bicgPhase = iota
	bPhase2
	bPhase3
	bPhase4
)

// recoverPhase is the per-phase recovery task body. allowLate
// distinguishes FEIR from AFEIR exactly as in CG: overlapped recovery
// must not rewrite pages the concurrent reduction tasks may be reading
// (pages whose stamp is current but whose fault bit was set mid-phase).
func (sv *BiCGStabSolver) recoverPhase(ver int64, cur int, phase bicgPhase, allowLate bool) {
	prev := 1 - cur
	dIn := vec(sv.d[prev], sv.dS[prev])
	dOut := vec(sv.d[cur], sv.dS[cur])
	gV, xV, qV := vec(sv.g, sv.gS), vec(sv.x, sv.xS), vec(sv.q, sv.qS)
	sV, tV := vec(sv.s, sv.sS), vec(sv.t, sv.tS)
	var dhatV, shatV engine.Vec
	// qSrc is what the phase's SpMV consumed: d̂ at ver when
	// preconditioned, the incoming direction at ver-1 otherwise.
	qSrc, qSrcVer := dIn, ver-1
	if sv.pre != nil {
		dhatV, shatV = vec(sv.dhat, sv.dhatS), vec(sv.shat, sv.shatS)
		qSrc, qSrcVer = dhatV, ver
	}
	// recoverQSrc repairs the SpMV input: d̂ forward by partial
	// application from dIn (or inverse through the new q), and dIn either
	// inverse through q (unpreconditioned) or by the forward product
	// d = M d̂. All safe for AFEIR: the phase reductions never read them.
	recoverQSrc := func(p int) bool {
		progress := false
		if sv.pre != nil {
			if !dhatV.Current(p, ver) {
				if sv.rel.PrecondApply(sv.pre, dhatV, ver, dIn, ver-1, p) {
					progress = true
				} else if sv.rel.InverseDirection(dhatV, ver, qV, ver, p) {
					progress = true
				}
			}
			if !dIn.Current(p, ver-1) && sv.rel.PrecondUnapply(sv.pre, dIn, ver-1, dhatV, ver, p) {
				progress = true
			}
			return progress
		}
		if !dIn.Current(p, ver-1) && sv.rel.InverseDirection(dIn, ver-1, qV, ver, p) {
			progress = true
		}
		return progress
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for p := 0; p < sv.np; p++ {
			lo, hi := sv.layout.Range(p)
			switch phase {
			case bPhase1:
				if recoverQSrc(p) {
					progress = true
				}
				// q rows skipped because the SpMV input was stale:
				// recompute. The reduction skipped them too (stale
				// stamp), so the rewrite is safe; late poisons only
				// under allowLate.
				if !qV.Current(p, ver) {
					if allowLate || !qV.LateFault(p, ver) {
						if sv.rel.ForwardSpMV(qV, ver, qSrc, qSrcVer, p) {
							progress = true
						}
					}
				}
			case bPhase2:
				// Inputs: g at ver-1 (not read by the <t,t>/<t,s>
				// reductions), q at ver.
				if sv.g.Failed(p) && sv.gS[p].Load() == ver-1 {
					if sv.rel.ForwardResidual(gV, ver-1, xV, ver-1, p) {
						progress = true
					}
				}
				if recoverQSrc(p) {
					progress = true
				}
				if !qV.Current(p, ver) && sv.rel.ForwardSpMV(qV, ver, qSrc, qSrcVer, p) {
					progress = true
				}
				// s = g - α q, then [ŝ = M⁻¹s and] t = A ŝ. s and t are
				// read by the reductions: stale pages were skipped
				// (safe), late poisons only under allowLate. ŝ is not
				// read by any reduction, so its repair is always safe.
				if !sV.Current(p, ver) {
					if (allowLate || !sV.LateFault(p, ver)) && gV.Current(p, ver-1) && qV.Current(p, ver) {
						sparse.XpbyOutRange(sv.g.Data, -sv.alpha, sv.q.Data, sv.s.Data, lo, hi)
						sv.rel.MarkRecovered(sV, p, ver)
						sv.stats.RecoveredForward++
						progress = true
					}
				}
				tSrc := sV
				if sv.pre != nil {
					tSrc = shatV
					if !shatV.Current(p, ver) && sv.rel.PrecondApply(sv.pre, shatV, ver, sV, ver, p) {
						progress = true
					}
				}
				if !tV.Current(p, ver) {
					if allowLate || !tV.LateFault(p, ver) {
						if sv.rel.ForwardSpMV(tV, ver, tSrc, ver, p) {
							// forwardSpMV counts RecomputedQ; t is the
							// same A·vec relation.
							progress = true
						}
					}
				}
			case bPhase3:
				// x += α d + ω s (or α d̂ + ω ŝ preconditioned): not read
				// by the <g,r̂> reduction.
				xDir, xDirVer, xStep := dIn, ver-1, sV
				if sv.pre != nil {
					xDir, xDirVer, xStep = dhatV, ver, shatV
					if !shatV.Current(p, ver) && sv.rel.PrecondApply(sv.pre, shatV, ver, sV, ver, p) {
						progress = true
					}
					if recoverQSrc(p) {
						progress = true
					}
				}
				if !sv.x.Failed(p) && sv.xS[p].Load() == ver-1 {
					if xDir.Current(p, xDirVer) && xStep.Current(p, ver) {
						sparse.Axpy2Range(sv.alpha, xDir.V.Data, sv.omega, xStep.V.Data, sv.x.Data, lo, hi)
						sv.xS[p].Store(ver)
						sv.stats.RecoveredForward++
						progress = true
					}
				} else if sv.x.Failed(p) {
					if sv.rel.InverseIterate(xV, ver, gV, ver, p) {
						progress = true
					}
				}
				// g = s - ω t: read by the reduction, late rule applies.
				if !gV.Current(p, ver) {
					if (allowLate || !gV.LateFault(p, ver)) && sV.Current(p, ver) && tV.Current(p, ver) {
						sparse.XpbyOutRange(sv.s.Data, -sv.omega, sv.t.Data, sv.g.Data, lo, hi)
						sv.rel.MarkRecovered(gV, p, ver)
						sv.stats.RecoveredForward++
						progress = true
					}
				}
			case bPhase4:
				// d = g + β(d' - ω q): nothing reads dOut concurrently.
				if !dOut.Current(p, ver) {
					if gV.Current(p, ver) && dIn.Current(p, ver-1) && qV.Current(p, ver) {
						sparse.XpbyzOutRange(sv.g.Data, sv.beta, dIn.V.Data, sv.omega, sv.q.Data, dOut.V.Data, lo, hi)
						sv.rel.MarkRecovered(dOut, p, ver)
						sv.stats.RecoveredForward++
						progress = true
					}
				}
			}
		}
		if !progress {
			break
		}
	}
	// Fill the partial contributions that are now computable.
	sv.fillPhasePartials(ver, phase, qV, sV, tV, gV)
}

func (sv *BiCGStabSolver) fillPhasePartials(ver int64, phase bicgPhase, qV, sV, tV, gV engine.Vec) {
	switch phase {
	case bPhase1:
		for p := 0; p < sv.np; p++ {
			if sv.qrPart.Missing(p) && qV.Current(p, ver) {
				lo, hi := sv.layout.Range(p)
				sv.qrPart.Store(p, sparse.DotRange(sv.q.Data, sv.rhat, lo, hi))
			}
		}
	case bPhase2:
		for p := 0; p < sv.np; p++ {
			lo, hi := sv.layout.Range(p)
			if sv.ttPart.Missing(p) && tV.Current(p, ver) {
				sv.ttPart.Store(p, sparse.DotRange(sv.t.Data, sv.t.Data, lo, hi))
			}
			if sv.tsPart.Missing(p) && tV.Current(p, ver) && sV.Current(p, ver) {
				sv.tsPart.Store(p, sparse.DotRange(sv.t.Data, sv.s.Data, lo, hi))
			}
		}
	case bPhase3:
		for p := 0; p < sv.np; p++ {
			if !gV.Current(p, ver) {
				continue
			}
			lo, hi := sv.layout.Range(p)
			if sv.rhoPart.Missing(p) {
				sv.rhoPart.Store(p, sparse.DotRange(sv.g.Data, sv.rhat, lo, hi))
			}
			if sv.ggPart.Missing(p) {
				sv.ggPart.Store(p, sparse.DotRange(sv.g.Data, sv.g.Data, lo, hi))
			}
		}
	}
}
