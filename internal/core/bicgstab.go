package core

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// BiCGStabSolver is the task-parallel resilient BiCGStab (Listing 3)
// protected with the redundancy relations of §3.1.2, running its
// iterations as chunked task graphs on the shared internal/engine — the
// same strip-mined decomposition, version stamps, recovery interpreter
// and phase boundary as the flagship CG, so FEIR (critical-path) and
// AFEIR (overlapped, Fig 2b) recovery both apply.
//
// The direction d is double-buffered (as in CG, Listing 2); the shadow
// residual r̂0 lives in reliably-stored constant memory (§2.1), the
// scalars in reliable memory. Iteration t consumes x, g and the incoming
// direction at version t-1 and produces q, s, t, x, g and the outgoing
// direction at version t; wire states which relation rebuilds each of
// them at each of the four phase ends. g stays the TRUE residual b - A x,
// so g = b - A x and x = A⁻¹(b - g) (LU diagonal blocks: A may be
// non-SPD) hold throughout.
//
// With Config.UsePrecond the solver runs the paper's preconditioned
// BiCGStab (Listing 6): the block-Jacobi M⁻¹ is applied to the search
// directions, d̂ = M⁻¹ d and ŝ = M⁻¹ s, through the engine's guarded
// apply-M⁻¹ page operation; the matvecs become q = A d̂ and t = A ŝ and
// the iterate update x += α d̂ + ω ŝ. The preconditioned vectors recover
// by their §3.2 relations: d̂ = M⁻¹ d by partial application, d = M d̂,
// and d̂ = A⁻¹ q through the factorized diagonal blocks.
type BiCGStabSolver struct {
	solverBase

	// The vectors with their stamps (xv is x). The preconditioned variant
	// (Listing 6) adds d̂ = M⁻¹ d and ŝ = M⁻¹ s, zero otherwise.
	xv, g, q, s, t, dhat, shat engine.Vec
	d                          [2]engine.Vec
	rhat                       []float64

	qrPart, ttPart, tsPart, rhoPart, ggPart *engine.Partial

	// Scalars of the current iteration. They live outside the page fault
	// domain (the error model only kills memory pages, §5.3).
	alpha, omega, beta float64
	rho                float64
	epsGG              float64 // <g,g> from the phase-3 reduction
	restartPending     bool

	dIn, dOut engine.Vec // the direction buffers iteration ver reads and writes
	tab       [4]repairTable
	rec       [4]recoveryTask

	// The prepared waves (buildPrepared), replayed every iteration.
	prep struct {
		dh, q, s, sh, t, ts, x, g, d *engine.Prepared
		after                        [4][]*taskrt.Handle // each phase's producers
		phase2                       []*taskrt.Handle    // phase 2's producers and <t,s>
	}
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
	sv.xv.V, sv.xv.S = sv.stamped("x")
	sv.x = sv.xv.V
	sv.g.V, sv.g.S = sv.stamped("g")
	sv.q.V, sv.q.S = sv.stamped("q")
	sv.d[0].V, sv.d[0].S = sv.stamped("d0")
	sv.d[1].V, sv.d[1].S = sv.stamped("d1")
	sv.s.V, sv.s.S = sv.stamped("s")
	sv.t.V, sv.t.S = sv.stamped("t")
	sv.rhat = make([]float64, a.N)
	if cfg.UsePrecond {
		sv.dhat.V, sv.dhat.S = sv.stamped("dh")
		sv.shat.V, sv.shat.S = sv.stamped("sh")
	}
	sv.qrPart = engine.NewPartial(sv.np)
	sv.ttPart = engine.NewPartial(sv.np)
	sv.tsPart = engine.NewPartial(sv.np)
	sv.rhoPart = engine.NewPartial(sv.np)
	sv.ggPart = engine.NewPartial(sv.np)
	sv.restartFrom = sv.restart
	sv.setVersion(0)
	sv.wire()
	return sv, nil
}

// setVersion makes iteration ver the running one: the version rows read
// theirs relative to, and its direction buffers (Listing 2's double
// buffering: the direction produced at ver-1 is read, ver's written).
func (sv *BiCGStabSolver) setVersion(ver int64) {
	cur, prev := ver%2, (ver+1)%2
	sv.ver = ver
	sv.dIn, sv.dOut = sv.d[prev], sv.d[cur]
}

// wire declares BiCGStab's recovery (§3.1.2), one table per phase, each
// run by the phase's repair task and reconciled at its end. The phase-4
// table is the carried state — x, g and the outgoing direction at ver —
// repaired before the next convergence check reads it; s, t and ŝ are
// regenerated next iteration, so there they are transient.
func (sv *BiCGStabSolver) wire() {
	x, g, q, s, t, dhat, shat := sv.xv, sv.g, sv.q, sv.s, sv.t, sv.dhat, sv.shat
	// What phase 1's SpMV consumes, the incoming direction at ver-1 or
	// d̂ at ver, and the matching x step; no reduction reads them. The
	// SpMV input repairs by d = A⁻¹ q, or d̂ = M⁻¹ d, d̂ = A⁻¹ q, d = M d̂.
	qSrc, qSrcOff, xStep := &sv.dIn, int64(-1), &s
	src := []repairRow{sv.directionRow(&sv.dIn, -1, &q, 0, false)}
	var shatRow []repairRow
	if sv.pre != nil {
		qSrc, qSrcOff, xStep = &dhat, 0, &shat
		src = []repairRow{sv.precondRow(&dhat, 0, &sv.dIn, -1, false), sv.directionRow(&dhat, 0, &q, 0, false), sv.unapplyRow(&sv.dIn, -1, &dhat, 0)}
		shatRow = []repairRow{sv.precondRow(&shat, 0, &s, 0, false)}
	}
	// g = s - ω t, the phase-3 update (read by <g,r̂> and <g,g>).
	gStep := repairRow{v: &g, kind: relForward, late: true, try: func(p int) bool {
		if g.Current(p, sv.ver) || !s.Current(p, sv.ver) || !t.Current(p, sv.ver) {
			return false
		}
		lo, hi := sv.layout.Range(p)
		sparse.XpbyOutRange(sv.s.V.Data, -sv.omega, sv.t.V.Data, sv.g.V.Data, lo, hi)
		return sv.forwarded(g, p, sv.ver)
	}}

	// Phase 1: [d̂ = M⁻¹ d,] q = A d̂, <q,r̂>. The carried state lost
	// before the phase comes first: x and g at ver-1, and the incoming
	// direction by its recurrence d = g + β(d' - ω q) through the q its
	// skipped rows kept.
	rows := []repairRow{sv.residualRow(&g, &x, -1, false), sv.iterateRow(&x, &g, -1), {v: &sv.dIn, off: -1, kind: relForward, try: func(p int) bool {
		ver := sv.ver
		if sv.dIn.Current(p, ver-1) || !g.Current(p, ver-1) {
			return false
		}
		lo, hi := sv.layout.Range(p)
		if sv.beta == 0 { // after a restart the direction is g
			copy(sv.dIn.V.Data[lo:hi], sv.g.V.Data[lo:hi])
		} else if q.Current(p, ver-1) && sv.dOut.Current(p, ver-2) {
			sparse.XpbyzOutRange(sv.g.V.Data, sv.beta, sv.dOut.V.Data, sv.omega, sv.q.V.Data, sv.dIn.V.Data, lo, hi)
		} else {
			return false
		}
		return sv.forwarded(sv.dIn, p, ver-1)
	}}}
	sv.tab[0] = repairTable{
		rows:  append(append(rows, src...), sv.spmvRow(&q, 0, qSrc, qSrcOff, true)),
		fills: []backFill{{part: sv.qrPart, x: &q, r: sv.rhat}},
	}
	// Phase 2: s = g - α q, [ŝ = M⁻¹ s,] t = A ŝ, <t,t>, <t,s>.
	rows = append([]repairRow{sv.residualRow(&g, &x, -1, false)}, src...)
	rows = append(rows, sv.spmvRow(&q, 0, qSrc, qSrcOff, false), repairRow{v: &s, kind: relForward, late: true, try: func(p int) bool {
		if s.Current(p, sv.ver) || !g.Current(p, sv.ver-1) || !q.Current(p, sv.ver) {
			return false
		}
		lo, hi := sv.layout.Range(p)
		sparse.XpbyOutRange(sv.g.V.Data, -sv.alpha, sv.q.V.Data, sv.s.V.Data, lo, hi)
		return sv.forwarded(s, p, sv.ver)
	}})
	sv.tab[1] = repairTable{rows: append(append(rows, shatRow...), sv.spmvRow(&t, 0, xStep, 0, true)), fills: []backFill{
		{part: sv.ttPart, x: &t, y: &t},
		{part: sv.tsPart, x: &t, y: &s},
	}}
	// Phase 3: x += α d̂ + ω ŝ (unpreconditioned α d + ω s), g = s - ω t,
	// <g,r̂>, <g,g>.
	rows = append(append([]repairRow{}, shatRow...), src...)
	rows = append(rows, repairRow{v: &x, kind: relForward, try: func(p int) bool {
		if sv.x.Failed(p) || sv.xv.S[p].Load() != sv.ver-1 || !qSrc.Current(p, sv.ver+qSrcOff) || !xStep.Current(p, sv.ver) {
			return false
		}
		lo, hi := sv.layout.Range(p)
		sparse.Axpy2Range(sv.alpha, qSrc.V.Data, sv.omega, xStep.V.Data, sv.x.Data, lo, hi)
		return sv.forwarded(x, p, sv.ver)
	}}, sv.iterateRow(&x, &g, 0), gStep)
	sv.tab[2] = repairTable{rows: rows, fills: []backFill{
		{part: sv.rhoPart, x: &g, r: sv.rhat},
		{part: sv.ggPart, x: &g, y: &g},
	}}
	// Phase 4: d = g + β(d' - ω q), after the carried g (the recurrence's
	// s - ω t, else b - A x), x, and the direction's inputs d', q (and d̂).
	rows = append([]repairRow{gStep, sv.residualRow(&g, &x, 0, false), sv.iterateRow(&x, &g, 0)}, src...)
	rows = append(rows, sv.spmvRow(&q, 0, qSrc, qSrcOff, false), repairRow{v: &sv.dOut, kind: relForward, try: func(p int) bool {
		if sv.dOut.Current(p, sv.ver) || !g.Current(p, sv.ver) || !sv.dIn.Current(p, sv.ver-1) || !q.Current(p, sv.ver) {
			return false
		}
		lo, hi := sv.layout.Range(p)
		sparse.XpbyzOutRange(sv.g.V.Data, sv.beta, sv.dIn.V.Data, sv.omega, sv.q.V.Data, sv.dOut.V.Data, lo, hi)
		return sv.forwarded(sv.dOut, p, sv.ver)
	}})
	sv.tab[3] = repairTable{rows: rows, transient: []*pagemem.Vector{sv.s.V, sv.t.V}}
	if sv.pre != nil {
		sv.tab[3].transient = append(sv.tab[3].transient, sv.shat.V)
	}
}

// ErrRecurrenceBreakdown reports a degenerate recurrence.
var ErrRecurrenceBreakdown = fmt.Errorf("core: recurrence breakdown")

// Run executes the resilient solve. It returns the result, the solution
// vector and the resilience statistics.
func (sv *BiCGStabSolver) Run() (Result, []float64, error) {
	defer sv.start(sv.resilient, sv.buildPrepared)()

	tol := sv.cfg.tol()
	maxIter := sv.cfg.maxIter(sv.a.N)

	// Initial state (x = 0): g = r̂0 = b; the direction consumed by
	// iteration 0 goes into d[1] (its dIn buffer) at version -1, matching
	// the initial stamps.
	copy(sv.g.V.Data, sv.b)
	copy(sv.rhat, sv.b)
	copy(sv.d[1].V.Data, sv.b)
	sv.rho = sparse.Dot(sv.g.V.Data, sv.rhat)
	sv.epsGG = sparse.Dot(sv.g.V.Data, sv.g.V.Data)
	sv.beta, sv.omega = 0, 0
	sv.restartPending = false

	var it int
	for it = 0; it < maxIter; it++ {
		if sv.cfg.Cancelled != nil && sv.cfg.Cancelled() {
			return sv.result(it), sv.x.Data, ErrCancelled
		}
		ver := int64(it)
		sv.setVersion(ver)

		// The residual norm comes from the <g,g> reduction of the
		// previous iteration's phase 3 — no sequential pass over g. The
		// carried state it describes was reconciled at the previous
		// phase-4 boundary, so accept reads no lost page.
		rel := relFromEpsilon(sv.epsGG, sv.bnorm)
		if sv.cfg.OnIteration != nil {
			sv.cfg.OnIteration(it, rel)
		}
		if rel < tol {
			if ok, err := sv.accept(tol); ok || err != nil {
				return sv.result(it), sv.x.Data, err
			}
			// Recurrence lied (an undetected flip, or a blank page of
			// Trivial): rebuild the recurrence from x and keep going.
			// Stamp at ver so THIS loop index is consumed by the
			// restart and the next iteration reads a consistent state.
			sv.restart(ver)
			sv.stats.Restarts++
			continue
		}
		if sv.restartPending {
			sv.restart(ver - 1)
			sv.stats.Restarts++
			sv.restartPending = false
		}

		// ---------------- Phase 1: [d̂ = M⁻¹d,] q = A d̂, <q, r̂> -------
		sv.sites.Open(it)
		sv.qrPart.ResetMissing()
		engine.Chain(sv.prep.dh, sv.prep.q)
		if sv.endPhase(sv.rec[0], &sv.tab[0], sv.prep.after[0], sv.prep.after[0]) {
			continue
		}
		qr, missQR := sv.sum(sv.qrPart)
		if qr == 0 || math.IsNaN(qr) || math.IsNaN(sv.rho) {
			if missQR == 0 && !sv.space.AnyFault() {
				return sv.result(it), sv.x.Data, ErrRecurrenceBreakdown
			}
			sv.restartPending = true
			continue
		}
		sv.alpha = sv.rho / qr

		// ---------------- Phase 2: s, [ŝ = M⁻¹s,] t = A ŝ, <t,t>, <t,s>
		sv.sites.Open(it)
		sv.ttPart.ResetMissing()
		sv.tsPart.ResetMissing()
		engine.Chain(sv.prep.s, sv.prep.sh, sv.prep.t, sv.prep.ts)
		if sv.endPhase(sv.rec[1], &sv.tab[1], sv.prep.after[1], sv.prep.phase2) {
			continue
		}
		tt, missTT := sv.sum(sv.ttPart)
		ts, _ := sv.sum(sv.tsPart)
		if tt == 0 {
			if missTT > 0 || sv.space.AnyFault() {
				sv.restartPending = true
				continue
			}
			// Lucky breakdown: s is already the residual of the updated x.
			sparse.Axpy(sv.alpha, sv.qIn().V.Data, sv.x.Data)
			copy(sv.g.V.Data, sv.s.V.Data)
			it++
			sv.converged, sv.final = sparse.Norm2(sv.g.V.Data)/sv.bnorm < tol, 0
			break
		}
		sv.omega = ts / tt

		// ---------------- Phase 3: x, g, <g, r̂> ----------------------
		sv.sites.Open(it)
		sv.rhoPart.ResetMissing()
		sv.ggPart.ResetMissing()
		sv.prep.x.Submit(nil)
		sv.prep.g.Submit(nil)
		if sv.endPhase(sv.rec[2], &sv.tab[2], sv.prep.after[2], sv.prep.after[2]) {
			continue
		}
		rhoNew, missRho := sv.sum(sv.rhoPart)
		gg, _ := sv.sum(sv.ggPart)
		sv.epsGG = gg
		if rhoBoundaryBreakdown(sv.rho, sv.omega, rhoNew, gg, sv.bnorm, tol) {
			if missRho == 0 && !sv.space.AnyFault() {
				return sv.result(it), sv.x.Data, ErrRecurrenceBreakdown
			}
			sv.restartPending = true
			continue
		}
		sv.beta = rhoNew / sv.rho * sv.alpha / sv.omega

		// ---------------- Phase 4: d = g + β(d' - ω q) ----------------
		sv.sites.Open(it)
		sv.prep.d.Submit(nil)
		if sv.endPhase(sv.rec[3], &sv.tab[3], sv.prep.after[3], sv.prep.after[3]) {
			continue
		}
		sv.rho = rhoNew
	}
	return sv.result(it), sv.x.Data, nil
}

// qIn is what the q SpMV and the x step read of the direction: the
// incoming direction at ver-1, or d̂ at ver when preconditioned.
func (sv *BiCGStabSolver) qIn() engine.Operand {
	if sv.pre != nil {
		return engine.In(sv.dhat, sv.ver)
	}
	return engine.In(sv.dIn, sv.ver-1)
}

// buildPrepared prepares BiCGStab's waves and each phase's repair once
// per engine. A page runs only when its inputs are current, and its
// output is stamped at ver (solverBase.produced). The bodies read ver, α,
// ω, β and dIn/dOut, which the coordinator sets before submission.
func (sv *BiCGStabSolver) buildPrepared() {
	e := sv.eng
	x, g, q, s, t, dhat, shat := sv.xv, sv.g, sv.q, sv.s, sv.t, sv.dhat, sv.shat
	// t = A ŝ fused with <t,t> and, unpreconditioned, <t,s>: there the
	// SpMV input IS s. Preconditioned, <t,s> is a wave of its own.
	tSrc, ts, tLabel := s, sv.tsPart, "t,<t,s>,<t,t>"
	//due:hotpath
	if sv.pre != nil {
		tSrc, ts, tLabel = shat, nil, "t,<t,t>"
		sv.prep.dh = e.PreparePages("dh", 0, func(p, _, _ int) {
			e.ApplyPrecondPage(p, sv.pre, engine.In(sv.dIn, sv.ver-1), engine.In(dhat, sv.ver))
		})
		sv.prep.sh = e.PreparePages("sh", 0, func(p, _, _ int) {
			e.ApplyPrecondPage(p, sv.pre, engine.In(s, sv.ver), engine.In(shat, sv.ver))
		})
		sv.prep.ts = e.PreparePages("<t,s>", 0, func(p, lo, hi int) {
			e.DotPartialPage(p, lo, hi, engine.In(t, sv.ver), engine.In(s, sv.ver), sv.tsPart)
		})
	}
	//due:hotpath
	sv.prep.q = e.PreparePages("q,<q,r>", 0, func(p, lo, hi int) {
		e.SpMVDotVecPage(p, lo, hi, sv.qIn(), engine.In(q, sv.ver), sv.rhat, sv.qrPart)
	})
	//due:hotpath
	sv.prep.s = e.PreparePages("s", 0, func(p, lo, hi int) {
		if e.Resilient && (!g.Current(p, sv.ver-1) || !q.Current(p, sv.ver)) {
			return
		}
		sparse.XpbyOutRange(sv.g.V.Data, -sv.alpha, sv.q.V.Data, sv.s.V.Data, lo, hi)
		sv.produced(s, p, true)
	})
	//due:hotpath
	sv.prep.t = e.PreparePages(tLabel, 0, func(p, lo, hi int) {
		e.SpMVDotPage(p, lo, hi, engine.In(tSrc, sv.ver), engine.In(t, sv.ver), ts, sv.ttPart)
	})
	// x += α d + ω s (Listing 6: x += α d̂ + ω ŝ), a read-modify-write.
	//due:hotpath
	sv.prep.x = e.PreparePages("x", 0, func(p, lo, hi int) {
		dir := sv.qIn()
		if e.Resilient && (!x.Current(p, sv.ver-1) || !dir.Current(p, dir.Ver) || !tSrc.Current(p, sv.ver)) {
			return
		}
		sparse.Axpy2Range(sv.alpha, dir.V.Data, sv.omega, tSrc.V.Data, sv.x.Data, lo, hi)
		sv.produced(x, p, false)
	})
	// g = s - ω t fused with the <g,r̂0> and <g,g> partials: a page that
	// ran had what the reductions' guards check current; a skipped page
	// leaves both slots missing.
	//due:hotpath
	sv.prep.g = e.PreparePages("g,<g,r>,<g,g>", 0, func(p, lo, hi int) {
		if e.Resilient && (!s.Current(p, sv.ver) || !t.Current(p, sv.ver)) {
			return
		}
		ow, oo := sparse.XpbyDotNormRange(sv.s.V.Data, -sv.omega, sv.t.V.Data, sv.g.V.Data, sv.rhat, lo, hi)
		sv.rhoPart.Store(p, ow)
		sv.ggPart.Store(p, oo)
		sv.produced(g, p, true)
	})
	//due:hotpath
	sv.prep.d = e.PreparePages("d", 0, func(p, lo, hi int) {
		if e.Resilient && (!g.Current(p, sv.ver) || !sv.dIn.Current(p, sv.ver-1) || !q.Current(p, sv.ver)) {
			return
		}
		sparse.XpbyzOutRange(sv.g.V.Data, sv.beta, sv.dIn.V.Data, sv.omega, sv.q.V.Data, sv.dOut.V.Data, lo, hi)
		sv.produced(sv.dOut, p, true)
	})
	for k, label := range [...]string{"r1", "r2", "r3", "r4"} {
		sv.rec[k] = sv.prepareRecovery(label, 0, &sv.tab[k]) // BiCGStab computes at tier 0
	}
	p := &sv.prep
	p.after = [4][]*taskrt.Handle{engine.Handles(p.dh, p.q), engine.Handles(p.s, p.sh, p.t), engine.Handles(p.x, p.g), engine.Handles(p.d)}
	p.phase2 = engine.Handles(p.s, p.sh, p.t, p.ts)
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

// restart rebuilds the whole recurrence from the current iterate:
// g = b - Ax, r̂0 = g, d = g, ρ = <g,g>, every fault bit cleared and
// every stamp forced to ver so the next iteration (ver+1) consumes a
// consistent state. Its callers count it in Stats.Restarts.
func (sv *BiCGStabSolver) restart(ver int64) {
	sv.space.ClearAll()
	sv.a.MulVec(sv.x.Data, sv.g.V.Data)
	sparse.Sub(sv.b, sv.g.V.Data, sv.g.V.Data)
	copy(sv.rhat, sv.g.V.Data)
	// Both buffers get the fresh direction: whichever one the next
	// iteration treats as dIn is then valid.
	copy(sv.d[0].V.Data, sv.g.V.Data)
	copy(sv.d[1].V.Data, sv.g.V.Data)
	if sv.pre != nil {
		sv.pre.Apply(sv.d[0].V.Data, sv.dhat.V.Data)
	}
	sv.a.MulVec(sv.qIn().V.Data, sv.q.V.Data) // keep the q = A d̂ pairing
	sv.rho = sparse.Dot(sv.g.V.Data, sv.rhat)
	sv.epsGG = sv.rho        // r̂0 = g, so <g,g> = <g,r̂0>
	sv.beta, sv.omega = 0, 0 // d = g: the direction's recurrence restarts
	sv.fillStamps(ver)
}
