package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/defaults"
	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
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
	start := time.Now()
	defer sv.open(false)() // the Arnoldi discipline: fault bits, no stamps

	tol := sv.cfg.tol()
	maxIter := sv.cfg.maxIter(sv.a.N)
	m := sv.restart

	h := sparse.NewDense(m+1, m) // working copy, Givens-rotated
	cs := make([]float64, m)
	sn := make([]float64, m)
	res := make([]float64, m+1)
	y := make([]float64, m)

	totalIt := 0
	converged := false
	var final float64 // the true residual of the accepted x
	for totalIt < maxIter {
		if sv.cfg.Cancelled != nil && sv.cfg.Cancelled() {
			return sv.result(totalIt, false, 0, start), sv.x.Data, ErrCancelled
		}
		sv.stepBoundary()
		// Start of cycle: g = b - A x (full rebuild validates g), fused
		// with the <g,g> partials — the cycle residual norm and, when
		// unpreconditioned, the Arnoldi ζ ride the rebuild's own pass.
		sv.dotPart.ResetMissing()
		sv.rt.WaitAll(sv.eng.RawOp("g,<g,g>", nil, func(p, lo, hi int) {
			sv.a.MulVecRange(sv.x.Data, sv.g.Data, lo, hi)
			var gg float64
			for i := lo; i < hi; i++ {
				d := sv.b[i] - sv.g.Data[i]
				sv.g.Data[i] = d
				gg += d * d
			}
			sv.dotPart.Store(p, gg)
		}))
		sv.clearFailed(sv.g)
		gg, _ := sv.dotPart.SumAvailable()
		trueRel := math.Sqrt(math.Max(gg, 0)) / sv.bnorm
		if sv.cfg.OnIteration != nil {
			sv.cfg.OnIteration(totalIt, trueRel)
		}
		if trueRel < tol || math.IsNaN(trueRel) || math.IsInf(trueRel, 0) {
			f, ok, err := sv.accept(tol)
			if ok {
				final, converged = f, true
				break
			}
			if err != nil {
				return sv.result(totalIt, false, 0, start), sv.x.Data, err
			}
		}
		// The Arnoldi start vector: g, or the preconditioned residual
		// z = M⁻¹ g (full overwrite, so the rebuild heals z losses too).
		src := sv.g
		sv.zeta = math.Sqrt(math.Max(gg, 0))
		if sv.pre != nil {
			sv.rt.WaitAll(sv.eng.RawApplyPrecond("z", nil, sv.pre, sv.g.Data, sv.z.Data))
			sv.clearFailed(sv.z)
			src = sv.z
			sv.zeta = math.Sqrt(sv.eng.Dot("<z,z>", src.Data, src.Data, sv.dotPart))
		}
		zeta := sv.zeta
		sv.rt.WaitAll(sv.eng.RawOp("v0", nil, func(p, lo, hi int) {
			for i := lo; i < hi; i++ {
				sv.v[0].Data[i] = src.Data[i] / zeta
			}
		}))
		sv.clearFailed(sv.v[0])
		sv.steps = 0
		for i := range res {
			res[i] = 0
		}
		res[0] = sv.zeta

		steps := 0
		for l := 0; l < m && totalIt < maxIter; l++ {
			// Arnoldi-step boundary: repair before using data. A Lossy
			// step ends the cycle without its update and, like CG's
			// restart, consumes an iteration.
			if sv.stepBoundary() {
				steps = 0
				totalIt++
				break
			}
			sv.sites.Open(totalIt)
			// w = A v_l (then w = M⁻¹ w in place when preconditioned),
			// chunked; under AFEIR a page damaged since the boundary is
			// repaired by a task overlapping the orthogonalisation
			// reductions that follow.
			wH := sv.eng.RawSpMV("w", nil, sv.v[l].Data, sv.w)
			if sv.pre != nil {
				wH = sv.eng.RawApplyPrecond("Mw", wH, sv.pre, sv.w, sv.w)
			}
			var rOverlap *taskrt.Handle
			if sv.cfg.Method == MethodAFEIR && sv.space.AnyFault() {
				sv.live = sv.steps // the step counter advances mid-phase
				//due:recovery
				rOverlap = sv.eng.OverlappedRecovery("rV", wH, func() { sv.repair(&sv.tab, false) })
			}
			sv.rt.WaitAll(wH)
			// Modified Gram-Schmidt: each h_{k,l} is a chunked reduction
			// followed by a chunked axpy; the LAST axpy is fused with the
			// normalisation norm <w,w>, saving one full pass over w.
			var wn2 float64
			for k := 0; k <= l; k++ {
				hk := sv.eng.Dot("<w,v>", sv.w, sv.v[k].Data, sv.dotPart)
				h.Set(k, l, hk)
				sv.hCopy.Set(k, l, hk) // redundancy store
				vk := sv.v[k].Data
				if k == l {
					wn2 = sv.eng.AxpyNorm("w-hv,<w,w>", -hk, vk, sv.w, sv.dotPart)
				} else {
					sv.rt.WaitAll(sv.eng.RawOp("w-hv", nil, func(p, lo, hi int) {
						sparse.AxpyRange(-hk, vk, sv.w, lo, hi)
					}))
				}
			}
			wn := math.Sqrt(math.Max(wn2, 0))
			h.Set(l+1, l, wn)
			sv.hCopy.Set(l+1, l, wn)
			steps = l + 1
			sv.steps = steps
			totalIt++
			if wn != 0 {
				sv.rt.WaitAll(sv.eng.RawOp("v+", nil, func(p, lo, hi int) {
					for i := lo; i < hi; i++ {
						sv.v[l+1].Data[i] = sv.w[i] / wn
					}
				}))
				sv.clearFailed(sv.v[l+1])
			}
			if rOverlap != nil {
				sv.rt.Wait(rOverlap)
			}
			for k := 0; k < l; k++ {
				hkl, hk1l := h.At(k, l), h.At(k+1, l)
				h.Set(k, l, cs[k]*hkl+sn[k]*hk1l)
				h.Set(k+1, l, -sn[k]*hkl+cs[k]*hk1l)
			}
			hll, hl1l := h.At(l, l), h.At(l+1, l)
			r := math.Hypot(hll, hl1l)
			if r == 0 {
				cs[l], sn[l] = 1, 0
			} else {
				cs[l], sn[l] = hll/r, hl1l/r
			}
			h.Set(l, l, r)
			h.Set(l+1, l, 0)
			res[l+1] = -sn[l] * res[l]
			res[l] = cs[l] * res[l]
			if sv.cfg.OnIteration != nil {
				sv.cfg.OnIteration(totalIt, math.Abs(res[l+1])/sv.bnorm)
			}
			if math.Abs(res[l+1])/sv.zeta < tol/10 || wn == 0 {
				break
			}
		}
		// y = R⁻¹ (rotated rhs); x += Σ y_l v_l.
		if sv.stepBoundary() {
			steps = 0
		}
		sv.sites.Close() // the update and the next cycle's residual are no sites
		for i := steps - 1; i >= 0; i-- {
			s := res[i]
			for j := i + 1; j < steps; j++ {
				s -= h.At(i, j) * y[j]
			}
			d := h.At(i, i)
			if d == 0 {
				return sv.result(totalIt, false, 0, start), sv.x.Data, ErrRecurrenceBreakdown
			}
			y[i] = s / d
		}
		sv.rt.WaitAll(sv.eng.RawOp("x+", nil, func(p, lo, hi int) {
			for l := 0; l < steps; l++ {
				sparse.AxpyRange(y[l], sv.v[l].Data, sv.x.Data, lo, hi)
			}
		}))
		sv.steps = 0
	}
	return sv.result(totalIt, converged, final, start), sv.x.Data, nil
}

func (sv *GMRESSolver) clearFailed(v *pagemem.Vector) {
	for _, p := range v.FailedPages() {
		v.MarkRecovered(p)
	}
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
