package solver

import (
	"math"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// GMRESOptions extends Options with the restart length m (Listing 4 uses
// cycles of m Arnoldi steps).
type GMRESOptions struct {
	Options
	// Restart is the Arnoldi cycle length m. Zero means 30.
	Restart int
}

func (o GMRESOptions) restart() int {
	if o.Restart > 0 {
		return o.Restart
	}
	return 30
}

// ArnoldiState exposes the inner state of one GMRES cycle so that the
// resilient variant in internal/core can verify and exploit the paper's
// §3.1.3 redundancy: any Arnoldi vector v_l (l >= 1) is recoverable from
// its predecessors and the Hessenberg column h_{*,l-1}.
type ArnoldiState struct {
	// V holds the m+1 Arnoldi basis vectors (rows).
	V [][]float64
	// H is the (m+1)×m upper-Hessenberg matrix, row-major.
	H *sparse.Dense
	// Steps is the number of completed Arnoldi steps in this cycle.
	Steps int
}

// RecoverArnoldiVector rebuilds V[l] for 1 <= l <= Steps from the relation
//
//	v_l = (A v_{l-1} - sum_{k<=l-1} h_{k,l-1} v_k) / h_{l,l-1}
//
// writing the result into out. It returns false when h_{l,l-1} vanishes
// (happy breakdown — the vector never existed).
func (s *ArnoldiState) RecoverArnoldiVector(a *sparse.CSR, l int, out []float64) bool {
	if l < 1 || l > s.Steps {
		return false
	}
	h := s.H.At(l, l-1)
	if h == 0 {
		return false
	}
	a.MulVec(s.V[l-1], out)
	for k := 0; k < l; k++ {
		sparse.Axpy(-s.H.At(k, l-1), s.V[k], out)
	}
	sparse.Scale(1/h, out)
	return true
}

// Givens is the least-squares half of a GMRES(m) cycle: the Givens
// rotations that reduce the Hessenberg matrix H to upper-triangular R
// column by column, the rotated right-hand side ζe₁, and the back
// substitution for the coefficients y of x += V y. The resilient GMRES in
// internal/core runs the same arithmetic through it.
type Givens struct {
	H              *sparse.Dense // (m+1)×m: H as the steps set it, R once rotated
	cs, sn, res, y []float64
}

// NewGivens returns the storage of a cycle of at most m steps.
func NewGivens(m int) *Givens {
	return &Givens{H: sparse.NewDense(m+1, m), cs: make([]float64, m), sn: make([]float64, m), res: make([]float64, m+1), y: make([]float64, m)}
}

// Start begins a cycle whose starting residual has norm zeta.
func (g *Givens) Start(zeta float64) {
	clear(g.res)
	g.res[0] = zeta
}

// Rotate applies the earlier rotations to column l of H, then the new
// one that annihilates H[l+1][l], and returns the residual norm left,
// |res[l+1]|.
func (g *Givens) Rotate(l int) float64 {
	h, cs, sn, res := g.H, g.cs, g.sn, g.res
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
	return math.Abs(res[l+1])
}

// Solve back-substitutes R y = res over the first steps columns into
// storage reused by every cycle; ok is false on a zero pivot.
func (g *Givens) Solve(steps int) (y []float64, ok bool) {
	for i := steps - 1; i >= 0; i-- {
		s := g.res[i]
		for j := i + 1; j < steps; j++ {
			s -= g.H.At(i, j) * g.y[j]
		}
		d := g.H.At(i, i)
		if d == 0 {
			return nil, false
		}
		g.y[i] = s / d
	}
	return g.y[:steps], true
}

// GMRES solves A x = b with restarted GMRES(m) (Listing 4). A need not be
// symmetric. x holds the initial guess on entry and the solution on
// return.
func GMRES(a *sparse.CSR, b, x []float64, opts GMRESOptions) (Result, error) {
	return gmres(a, nil, b, x, opts)
}

// PGMRES solves with left-preconditioned GMRES (Listing 7): the Arnoldi
// process runs on M^{-1}A and the residual test uses the true residual.
func PGMRES(a *sparse.CSR, m precond.Preconditioner, b, x []float64, opts GMRESOptions) (Result, error) {
	return gmres(a, m, b, x, opts)
}

func gmres(a *sparse.CSR, m precond.Preconditioner, b, x []float64, opts GMRESOptions) (Result, error) {
	n := a.N
	mm := opts.restart()
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	bnorm := sparse.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	// Preconditioned reference norm: convergence is tested on the
	// preconditioned residual within a cycle, then on the true residual
	// between cycles.
	g := make([]float64, n)
	z := make([]float64, n)
	w := make([]float64, n)
	u := make([]float64, n)

	vv := make([][]float64, mm+1)
	for i := range vv {
		vv[i] = make([]float64, n)
	}
	lsq := NewGivens(mm)

	totalIt := 0
	restarts := 0
	for totalIt < maxIter {
		// g = b - A x; z = M^{-1} g (z = g unpreconditioned).
		a.MulVec(x, g)
		sparse.Sub(b, g, g)
		if m != nil {
			m.Apply(g, z)
		} else {
			copy(z, g)
		}
		zeta := sparse.Norm2(z)
		trueRel := sparse.Norm2(g) / bnorm
		if opts.OnIteration != nil {
			opts.OnIteration(totalIt, trueRel)
		}
		if trueRel < tol || zeta == 0 {
			break
		}
		lsq.Start(zeta)
		copy(vv[0], z)
		sparse.Scale(1/zeta, vv[0])

		// Arnoldi with modified Gram-Schmidt and Givens rotations.
		steps := 0
		for l := 0; l < mm && totalIt < maxIter; l++ {
			a.MulVec(vv[l], u)
			if m != nil {
				m.Apply(u, w)
			} else {
				copy(w, u)
			}
			for k := 0; k <= l; k++ {
				hk := sparse.Dot(w, vv[k])
				lsq.H.Set(k, l, hk)
				sparse.Axpy(-hk, vv[k], w)
			}
			wn := sparse.Norm2(w)
			lsq.H.Set(l+1, l, wn)
			steps = l + 1
			totalIt++
			if wn != 0 {
				copy(vv[l+1], w)
				sparse.Scale(1/wn, vv[l+1])
			}
			left := lsq.Rotate(l)
			if opts.OnIteration != nil {
				opts.OnIteration(totalIt, left/bnorm)
			}
			if left/zeta < tol/10 || wn == 0 {
				break
			}
		}
		// Back-substitute y from the triangularized H, then update x.
		y, ok := lsq.Solve(steps)
		if !ok {
			return Result{Iterations: totalIt, Restarts: restarts}, ErrBreakdown
		}
		for l, yl := range y {
			sparse.Axpy(yl, vv[l], x)
		}
		restarts++
	}

	r, err := finish(a, b, x, bnorm, totalIt, tol)
	r.Restarts = restarts
	return r, err
}

// BuildArnoldi runs m plain Arnoldi steps on A starting from v0 = g/||g||
// and returns the state — used by tests and by the GMRES recovery logic in
// internal/core to validate the Hessenberg redundancy relation.
func BuildArnoldi(a *sparse.CSR, g []float64, m int) *ArnoldiState {
	n := a.N
	st := &ArnoldiState{
		V: make([][]float64, m+1),
		H: sparse.NewDense(m+1, m),
	}
	for i := range st.V {
		st.V[i] = make([]float64, n)
	}
	gn := sparse.Norm2(g)
	copy(st.V[0], g)
	sparse.Scale(1/gn, st.V[0])
	w := make([]float64, n)
	for l := 0; l < m; l++ {
		a.MulVec(st.V[l], w)
		for k := 0; k <= l; k++ {
			hk := sparse.Dot(w, st.V[k])
			st.H.Set(k, l, hk)
			sparse.Axpy(-hk, st.V[k], w)
		}
		wn := sparse.Norm2(w)
		st.H.Set(l+1, l, wn)
		st.Steps = l + 1
		if wn == 0 {
			break
		}
		copy(st.V[l+1], w)
		sparse.Scale(1/wn, st.V[l+1])
	}
	return st
}
