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
}

// NewGMRES builds a resilient GMRES(m) solver. restart m must satisfy
// m+3 <= pagemem.MaxVectors.
func NewGMRES(a *sparse.CSR, b []float64, restart int, cfg Config) (*GMRESSolver, error) {
	sv := &GMRESSolver{restart: defaults.GMRESRestartOr(restart)}
	if err := sv.init(a, b, cfg, false); err != nil {
		return nil, err
	}
	if err := cgOnlyFallback("gmres", cfg); err != nil {
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
	return sv, nil
}

// DynamicVectors lists the vectors injections cover (§5.3).
func (sv *GMRESSolver) DynamicVectors() []*pagemem.Vector {
	vs := []*pagemem.Vector{sv.x, sv.g}
	if sv.z != nil {
		vs = append(vs, sv.z)
	}
	return append(vs, sv.v...)
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
		sv.boundary()
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
			sv.boundary() // Arnoldi-step boundary: repair before using data
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
				liveSteps := sv.steps // snapshot: the step counter advances mid-phase
				//due:recovery
				rOverlap = sv.eng.OverlappedRecovery("rV", wH, func() { sv.repairPasses(liveSteps) })
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
		sv.boundary()
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

// boundary applies pending data losses with all workers quiescent and
// resolves every failed page: exact repairs for FEIR/AFEIR, iterate
// interpolation for Lossy, blank pages otherwise. Leaving a boundary no
// page is failed, which is what lets the compute tasks run unguarded.
func (sv *GMRESSolver) boundary() {
	sv.applyPending()
	if !sv.space.AnyFault() {
		return
	}
	switch sv.cfg.Method {
	case MethodFEIR, MethodAFEIR:
		sv.repairPasses(sv.steps)
	case MethodLossy:
		if sv.interpolateLostIterate(sv.x.FailedPages()) {
			sv.stats.Restarts++
		}
	}
	// Unused basis slots (l > steps) will be overwritten: blank them.
	for l := sv.steps + 1; l < len(sv.v); l++ {
		for _, p := range sv.v[l].FailedPages() {
			sv.v[l].Remap(p)
			sv.v[l].MarkRecovered(p)
		}
	}
	// Anything else is unrecoverable related data: blank (a restart cycle
	// will rebuild the basis from x anyway).
	for _, v := range sv.space.Vectors() {
		for _, p := range v.FailedPages() {
			v.Remap(p)
			v.MarkRecovered(p)
			sv.stats.Unrecovered++
		}
	}
}

// repairPasses runs the §3.1.3 relations to a fixpoint: g = b - A x,
// x = A⁻¹(b - g), z = M⁻¹ g (preconditioned), v_0 = z/ζ (or g/ζ) and the
// Hessenberg redundancy for v_l up to the given completed step count. It
// is safe to run concurrently with reduction tasks (the AFEIR overlap):
// replacement data is exact, so readers of a page being repaired see
// values equal to the originals.
func (sv *GMRESSolver) repairPasses(steps int) {
	gV := engine.Vec{V: sv.g}
	xV := engine.Vec{V: sv.x}
	src := sv.g
	if sv.pre != nil {
		src = sv.z
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for _, p := range sv.g.FailedPages() {
			if sv.rel.ForwardResidual(gV, 0, xV, 0, p) {
				progress = true
			}
		}
		for _, p := range sv.x.FailedPages() {
			if sv.rel.InverseIterate(xV, 0, gV, 0, p) {
				progress = true
			}
		}
		// z = M⁻¹ g by partial application (§3.2).
		if sv.pre != nil {
			zV := engine.Vec{V: sv.z}
			for _, p := range sv.z.FailedPages() {
				if sv.rel.PrecondApply(sv.pre, zV, 0, gV, 0, p) {
					progress = true
				}
			}
		}
		// v_0 = z / ζ (or g / ζ unpreconditioned).
		for _, p := range sv.v[0].FailedPages() {
			if steps == 0 || sv.zeta == 0 {
				break
			}
			if src.Failed(p) {
				continue
			}
			lo, hi := sv.layout.Range(p)
			for i := lo; i < hi; i++ {
				sv.v[0].Data[i] = src.Data[i] / sv.zeta
			}
			sv.v[0].MarkRecovered(p)
			sv.stats.RecoveredForward++
			progress = true
		}
		// v_l from the Hessenberg redundancy, page by page.
		for l := 1; l <= steps; l++ {
			vl := sv.v[l]
			if !vl.AnyFailed() {
				continue
			}
			hll := sv.hCopy.At(l, l-1)
			if hll == 0 {
				continue
			}
			for _, p := range vl.FailedPages() {
				// Needs v_{l-1} on the connected pages and v_k on page p.
				if sv.v[l-1].AnyFailedInPages(sv.conn[p]) {
					continue
				}
				bad := false
				for k := 0; k < l; k++ {
					if sv.v[k].Failed(p) {
						bad = true
						break
					}
				}
				if bad {
					continue
				}
				lo, hi := sv.layout.Range(p)
				buf := make([]float64, hi-lo)
				sv.a.MulVecRangeExcludingCols(sv.v[l-1].Data, buf, lo, hi, 0, 0)
				if sv.pre != nil {
					// Left preconditioning: the Arnoldi operator is
					// M⁻¹ A, and M⁻¹ is block-diagonal, so the rebuilt
					// rows just get the partial application too.
					if sv.pre.SolveBlockInPlace(p, buf) != nil {
						continue
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
				vl.MarkRecovered(p)
				sv.stats.RecoveredForward++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
}
