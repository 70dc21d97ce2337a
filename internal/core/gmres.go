package core

import (
	"fmt"
	"math"

	"repro/internal/defaults"
	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// GMRESSolver is the task-parallel resilient restarted GMRES(m)
// (Listing 4) protected with the §3.1.3 redundancies, running every
// Arnoldi step as chunked task graphs on the shared internal/engine. The
// Arnoldi basis — the bulk of the method's dynamic data — is recoverable
// from the Hessenberg matrix:
//
//	v_l = (A v_{l-1} - Σ_{k<l} h_{k,l-1} v_k) / h_{l,l-1}
//
// so a pristine copy of H is kept while the Givens-rotated R is built (the
// paper's "keeping a copy of the matrix H has a reasonable cost"; H and R
// are m(m+1) — far smaller than the m·n basis). The iterate and residual
// pair is protected by g = b - A x / x = A⁻¹(b - g) as for CG; within an
// Arnoldi cycle x and g are constant, so the pair stays consistent.
//
// Unlike CG and BiCGStab, GMRES tracks validity with fault bits alone (no
// version stamps): detected errors leave the page data intact until the
// next step boundary (detect-on-access semantics, see pagemem), so the
// chunked compute tasks run unguarded and exact repairs happen at Arnoldi
// step boundaries. Under MethodAFEIR an additional repair task is
// overlapped with each step's orthogonalisation reductions at low
// priority (Fig 2b): it recomputes still-intact poisoned pages in place
// (exact replacement data, so concurrent readers are unaffected) and
// clears their fault bits, hiding the recovery latency; whatever it could
// not reach is repaired at the boundary like FEIR.
//
// With Config.UsePrecond the solver runs left-preconditioned GMRES on
// M⁻¹ A x = M⁻¹ b with the block-Jacobi M: the cycle starts from the
// protected preconditioned residual z = M⁻¹ g (recoverable from g by
// partial application, §3.2) and every Arnoldi step applies M⁻¹ to the
// SpMV result in place (w is regenerated per step, so it needs no
// protection). The Hessenberg redundancy becomes
//
//	v_l = (M⁻¹ A v_{l-1} - Σ_{k<l} h_{k,l-1} v_k) / h_{l,l-1}
//
// whose only new ingredient is a per-page M⁻¹_pp application on the
// rebuilt SpMV rows — block diagonality keeps the relation page-local.
// The x/g pair keeps the UNpreconditioned g = b - A x relation, and
// convergence is still declared on the true residual.
type GMRESSolver struct {
	solverBase

	restart int
	g       *pagemem.Vector
	z       *pagemem.Vector // preconditioned residual M⁻¹ g (UsePrecond)
	v       []*pagemem.Vector
	w       []float64     // unprotected per-step scratch
	hCopy   *sparse.Dense // pristine H, the redundancy store
	dotPart *engine.Partial

	zeta  float64 // ||z|| of the current cycle (reliable scalar)
	steps int     // completed Arnoldi steps in the current cycle
	live  int     // the completed steps the running repair may rebuild
	tab   repairTable

	lsq    *solver.Givens // the cycle's least-squares problem
	y      []float64      // its solution, the coefficients x+ applies
	col, k int            // the running step's column l and Gram–Schmidt index
	hk     float64        // the coefficient h_{k,col} the step's update applies
	prep   struct {
		g, z, zz, v0, w, mw, wv, whv, whvww, vNext, x *engine.Prepared
		rV                                            recoveryTask
	}
}

// NewGMRES builds a resilient GMRES(m) solver. restart m must satisfy
// m+3 <= pagemem.MaxVectors.
func NewGMRES(a *sparse.CSR, b []float64, restart int, cfg Config) (*GMRESSolver, error) {
	sv := &GMRESSolver{restart: defaults.GMRESRestartOr(restart)}
	if err := sv.init(a, b, cfg, false); err != nil {
		return nil, err
	}
	fixed := 3 // x, g, v_0..v_m
	if cfg.UsePrecond {
		fixed = 4 // plus the protected preconditioned residual z
	}
	if sv.restart+fixed > pagemem.MaxVectors {
		return nil, fmt.Errorf("core: restart %d exceeds protectable vectors (max %d)", sv.restart, pagemem.MaxVectors-fixed)
	}
	sv.x = sv.space.AddVector("x")
	sv.g = sv.space.AddVector("g")
	if cfg.UsePrecond {
		sv.z = sv.space.AddVector("z")
	}
	sv.v = make([]*pagemem.Vector, sv.restart+1)
	for i := range sv.v {
		sv.v[i] = sv.space.AddVector(fmt.Sprintf("v%d", i))
	}
	sv.w = make([]float64, a.N)
	sv.hCopy = sparse.NewDense(sv.restart+1, sv.restart)
	sv.lsq = solver.NewGivens(sv.restart)
	sv.dotPart = engine.NewPartial(sv.np)
	sv.restartFrom = func(int64) { sv.space.ClearAll() }
	sv.wire()
	return sv, nil
}

// wire declares GMRES's recovery: the relations above, tracked by fault
// bits alone, run row after row over every page so that one pass rebuilds
// a chain v_0, v_1, … . Replacement data is exact, so the table may run
// beside the orthogonalisation reductions (the AFEIR overlap).
func (sv *GMRESSolver) wire() {
	x, g := engine.Vec{V: sv.x}, engine.Vec{V: sv.g}
	src := sv.g
	rows := []repairRow{sv.residualRow(&g, &x, 0, false), sv.iterateRow(&x, &g, 0)}
	if sv.pre != nil {
		z := engine.Vec{V: sv.z}
		src = sv.z
		rows = append(rows, sv.precondRow(&z, 0, &g, 0, false))
	}
	for l := range sv.v {
		vl := engine.Vec{V: sv.v[l]}
		row := repairRow{v: &vl, kind: relForward}
		if l == 0 {
			row.try = func(p int) bool {
				if !sv.v[0].Failed(p) || sv.live == 0 || sv.zeta == 0 || src.Failed(p) {
					return false
				}
				lo, hi := sv.layout.Range(p)
				for i := lo; i < hi; i++ {
					sv.v[0].Data[i] = src.Data[i] / sv.zeta
				}
				return sv.forwarded(vl, p, 0)
			}
		} else {
			row.try = func(p int) bool { return sv.hessenberg(l, p) && sv.forwarded(vl, p, 0) }
		}
		rows = append(rows, row)
	}
	sv.tab = repairTable{rows: rows, rowMajor: true}
}

// hessenberg rebuilds page p of v_l from
// v_l = (A v_{l-1} - Σ_{k<l} h_{k,l-1} v_k) / h_{l,l-1}, which needs v_{l-1}
// on the connected pages and every earlier v_k on page p.
func (sv *GMRESSolver) hessenberg(l, p int) bool {
	vl := sv.v[l]
	hll := sv.hCopy.At(l, l-1)
	if !vl.Failed(p) || l > sv.live || hll == 0 || sv.v[l-1].AnyFailedInPages(sv.conn[p]) {
		return false
	}
	for k := 0; k < l; k++ {
		if sv.v[k].Failed(p) {
			return false
		}
	}
	lo, hi := sv.layout.Range(p)
	buf := sv.scratch[:hi-lo]
	sv.a.MulVecRangeExcludingCols(sv.v[l-1].Data, buf, lo, hi, 0, 0)
	if sv.pre != nil {
		// Left preconditioning: the Arnoldi operator is M⁻¹ A, and M⁻¹
		// is block-diagonal, so the rebuilt rows just get the partial
		// application too.
		if sv.pre.SolveBlockInPlace(p, buf) != nil {
			return false
		}
		sv.stats.PrecondPartialApplies++
	}
	for k := 0; k < l; k++ {
		hk := sv.hCopy.At(k, l-1)
		if hk == 0 {
			continue
		}
		vk := sv.v[k].Data
		for i := lo; i < hi; i++ {
			buf[i-lo] -= hk * vk[i]
		}
	}
	for i := lo; i < hi; i++ {
		vl.Data[i] = buf[i-lo] / hll
	}
	return true
}

// Run executes the resilient solve and returns the result and solution.
func (sv *GMRESSolver) Run() (Result, []float64, error) {
	defer sv.start(false, sv.buildPrepared)() // the Arnoldi discipline: fault bits, no stamps

	tol := sv.cfg.tol()
	maxIter := sv.cfg.maxIter(sv.a.N)

	totalIt := 0
	for totalIt < maxIter {
		if sv.cfg.Cancelled != nil && sv.cfg.Cancelled() {
			return sv.result(totalIt), sv.x.Data, ErrCancelled
		}
		sv.stepBoundary()
		// Start of cycle: g = b - A x (full rebuild validates g), fused
		// with the <g,g> partials — the cycle residual norm and, when
		// unpreconditioned, the Arnoldi ζ ride the rebuild's own pass.
		gg := sv.reduce(sv.prep.g)
		trueRel := math.Sqrt(math.Max(gg, 0)) / sv.bnorm
		if sv.cfg.OnIteration != nil {
			sv.cfg.OnIteration(totalIt, trueRel)
		}
		if trueRel < tol || math.IsNaN(trueRel) || math.IsInf(trueRel, 0) {
			if ok, err := sv.accept(tol); ok || err != nil {
				return sv.result(totalIt), sv.x.Data, err
			}
		}
		// The Arnoldi start vector: g, or the preconditioned residual
		// z = M⁻¹ g (full overwrite, so the rebuild heals z losses too).
		sv.zeta = math.Sqrt(math.Max(gg, 0))
		if sv.pre != nil {
			sv.prep.z.Run()
			sv.zeta = math.Sqrt(sv.reduce(sv.prep.zz))
		}
		sv.prep.v0.Run()
		sv.steps = 0
		sv.lsq.Start(sv.zeta)

		for l := 0; l < sv.restart && totalIt < maxIter; l++ {
			// Arnoldi-step boundary: repair before using data. A Lossy
			// step ends the cycle without its update and, like CG's
			// restart, consumes an iteration.
			if sv.stepBoundary() {
				sv.steps = 0
				totalIt++
				break
			}
			sv.sites.Open(totalIt)
			// w = A v_l (then w = M⁻¹ w in place when preconditioned),
			// chunked; under AFEIR a page damaged since the boundary is
			// repaired by a task overlapping the orthogonalisation
			// reductions that follow.
			sv.col = l
			wH := sv.prep.w.Submit(nil)
			if sv.pre != nil {
				wH = sv.prep.mw.Submit(wH)
			}
			overlap := sv.cfg.Method == MethodAFEIR && sv.space.AnyFault()
			if overlap {
				sv.live = sv.steps // the step counter advances mid-phase
				sv.prep.rV.overlapped.Submit(wH)
			}
			sv.rt.WaitAll(wH)
			// Modified Gram-Schmidt: each h_{k,l} is a chunked reduction
			// followed by a chunked axpy; the LAST axpy is fused with the
			// normalisation norm <w,w>, saving one full pass over w.
			var wn2 float64
			for k := 0; k <= l; k++ {
				sv.k = k
				sv.hk = sv.reduce(sv.prep.wv)
				sv.lsq.H.Set(k, l, sv.hk)
				sv.hCopy.Set(k, l, sv.hk) // redundancy store
				if k == l {
					wn2 = sv.reduce(sv.prep.whvww)
				} else {
					sv.prep.whv.Run()
				}
			}
			wn := math.Sqrt(math.Max(wn2, 0))
			sv.lsq.H.Set(l+1, l, wn)
			sv.hCopy.Set(l+1, l, wn)
			sv.steps = l + 1
			totalIt++
			if wn != 0 {
				sv.k, sv.hk = l+1, wn
				sv.prep.vNext.Run()
			}
			if overlap {
				sv.prep.rV.overlapped.Wait()
			}
			left := sv.lsq.Rotate(l)
			if sv.cfg.OnIteration != nil {
				sv.cfg.OnIteration(totalIt, left/sv.bnorm)
			}
			if left/sv.zeta < tol/10 || wn == 0 {
				break
			}
		}
		// y = R⁻¹ (rotated rhs); x += Σ y_l v_l.
		if sv.stepBoundary() {
			sv.steps = 0
		}
		sv.sites.Close() // the update and the next cycle's residual are no sites
		var ok bool
		if sv.y, ok = sv.lsq.Solve(sv.steps); !ok {
			return sv.result(totalIt), sv.x.Data, ErrRecurrenceBreakdown
		}
		sv.prep.x.Run()
		sv.steps = 0
	}
	return sv.result(totalIt), sv.x.Data, nil
}

// reduce replays a prepared reduction into dotPart and returns its sum.
func (sv *GMRESSolver) reduce(op *engine.Prepared) float64 {
	sv.dotPart.ResetMissing()
	op.Run()
	sum, _ := sv.dotPart.SumAvailable()
	return sum
}

// buildPrepared prepares GMRES's waves once per engine, unguarded (the
// Arnoldi discipline repairs at step boundaries; a wave that rewrites a
// protected vector whole clears its fault bits), and the overlapped
// repair rV. The bodies read ζ, the step's column col and the
// Gram–Schmidt index k with its coefficient hk (v+ writes column
// k = col+1 from h_{k,col}), which the coordinator sets before
// submission.
func (sv *GMRESSolver) buildPrepared() {
	e, x, g, b, w := sv.eng, sv.x.Data, sv.g.Data, sv.b, sv.w
	//due:hotpath
	sv.prep.g = e.PreparePages("g,<g,g>", 0, func(p, lo, hi int) {
		sv.a.MulVecRange(x, g, lo, hi)
		var gg float64
		for i := lo; i < hi; i++ {
			d := b[i] - g[i]
			g[i] = d
			gg += d * d
		}
		sv.dotPart.Store(p, gg)
		sv.g.MarkRecovered(p)
	})
	src := g // the Arnoldi start vector
	if sv.pre != nil {
		src = sv.z.Data
		//due:hotpath
		sv.prep.z = e.PreparePages("z", 0, func(p, _, _ int) {
			_ = sv.pre.ApplyBlock(p, g, src)
			sv.z.MarkRecovered(p)
		})
		//due:hotpath
		sv.prep.zz = e.PreparePages("<z,z>", 0, func(p, lo, hi int) { sv.dotPart.Store(p, sparse.DotRange(src, src, lo, hi)) })
		//due:hotpath
		sv.prep.mw = e.PreparePages("Mw", 0, func(p, _, _ int) { _ = sv.pre.ApplyBlock(p, w, w) })
	}
	//due:hotpath
	sv.prep.v0 = e.PreparePages("v0", 0, func(p, lo, hi int) {
		for i := lo; i < hi; i++ {
			sv.v[0].Data[i] = src[i] / sv.zeta
		}
		sv.v[0].MarkRecovered(p)
	})
	//due:hotpath
	sv.prep.w = e.PreparePages("w", 0, func(_, lo, hi int) { sv.a.MulVecRange(sv.v[sv.col].Data, w, lo, hi) })
	//due:hotpath
	sv.prep.wv = e.PreparePages("<w,v>", 0, func(p, lo, hi int) { sv.dotPart.Store(p, sparse.DotRange(w, sv.v[sv.k].Data, lo, hi)) })
	//due:hotpath
	sv.prep.whv = e.PreparePages("w-hv", 0, func(_, lo, hi int) { sparse.AxpyRange(-sv.hk, sv.v[sv.k].Data, w, lo, hi) })
	//due:hotpath
	sv.prep.whvww = e.PreparePages("w-hv,<w,w>", 0, func(p, lo, hi int) {
		sv.dotPart.Store(p, sparse.AxpyDotRange(-sv.hk, sv.v[sv.k].Data, w, lo, hi))
	})
	//due:hotpath
	sv.prep.vNext = e.PreparePages("v+", 0, func(p, lo, hi int) {
		v := sv.v[sv.k]
		for i := lo; i < hi; i++ {
			v.Data[i] = w[i] / sv.hk
		}
		v.MarkRecovered(p)
	})
	//due:hotpath
	sv.prep.x = e.PreparePages("x+", 0, func(_, lo, hi int) {
		for l, yl := range sv.y {
			sparse.AxpyRange(yl, sv.v[l].Data, x, lo, hi)
		}
	})
	sv.prep.rV = sv.prepareRecovery("rV", 0, &sv.tab)
}

// stepBoundary is GMRES's phase end (solverBase.boundary): its repair
// may rebuild the completed steps, and the unused basis slots, which the
// next steps overwrite, are transient. A Lossy step ends the cycle: the
// next one rebuilds g, z and the basis from x.
func (sv *GMRESSolver) stepBoundary() (restart bool) {
	sv.live = sv.steps
	sv.tab.transient = sv.v[sv.steps+1:]
	return sv.boundary(&sv.tab)
}
