// Fused hot-path kernels: each combines a vector-producing operation with
// the reduction(s) that immediately consume its output, so the solvers'
// steady-state iterations touch every cache line once instead of twice or
// three times. Every fused kernel performs the exact same floating-point
// operations in the exact same order as its unfused composition (the
// producing kernel followed by DotRange over the produced values), so the
// results agree bitwise. fused_test.go pins the vectors bitwise and the
// partials to a few ulps against the unfused composition, and the DIA
// shadow's y and partials bitwise against the generic CSR kernels
// (TestDIAShadowMatchesGenericCSR).
package sparse

// MulVecDotRange computes y[lo:hi] = (A*x)[lo:hi] fused with the partial
// inner products over the produced rows: xy = Σ x[i]·y[i] and
// yy = Σ y[i]·y[i] for i in [lo, hi). It is the CG phase-1 kernel
// (q = A d with <d,q>) and, with x the BiCGStab intermediate s, the
// phase-2 kernel (t = A s with <t,s> and <t,t>).
//
//due:hotpath
func (a *CSR) MulVecDotRange(x, y []float64, lo, hi int) (xy, yy float64) {
	if a.diaOffs != nil {
		return a.mulRangeDIA(x, y, x, lo, hi)
	}
	if a.sellPtr != nil {
		return a.mulVecDotRangeSELL(x, y, lo, hi)
	}
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
		xy += x[i] * s
		yy += s * s
	}
	return xy, yy
}

// MulVecDotVecRange computes y[lo:hi] = (A*x)[lo:hi] fused with the
// partial inner product wy = Σ y[i]·w[i] against a third vector — the
// BiCGStab phase-1 kernel q = A d̂ with <q, r̂0> (the shadow residual lives
// in reliable memory, so it is a plain slice).
//
//due:hotpath
func (a *CSR) MulVecDotVecRange(x, y, w []float64, lo, hi int) (wy float64) {
	if a.diaOffs != nil {
		wy, _ = a.mulRangeDIA(x, y, w, lo, hi)
		return wy
	}
	if a.sellPtr != nil {
		return a.mulVecDotVecRangeSELL(x, y, w, lo, hi)
	}
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
		wy += s * w[i]
	}
	return wy
}

// AxpyDotRange computes y[lo:hi] += alpha*x[lo:hi] fused with the partial
// squared norm Σ y[i]·y[i] of the updated values — the CG phase-2 kernel
// g -= α q with ε = <g,g>, and the GMRES kernel for the last
// orthogonalisation update fused with the Arnoldi normalisation norm.
//
//due:hotpath
func AxpyDotRange(alpha float64, x, y []float64, lo, hi int) (yy float64) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	if useAVX2 {
		return axpyDotAVX2(alpha, xs, ys)
	}
	for i, v := range xs {
		u := ys[i] + alpha*v
		ys[i] = u
		yy += u * u
	}
	return yy
}

// XpbyNormRange computes out[lo:hi] = x[lo:hi] + beta*y[lo:hi] fused with
// the partial squared norm Σ out[i]·out[i] of the produced values.
//
//due:hotpath
func XpbyNormRange(x []float64, beta float64, y, out []float64, lo, hi int) (oo float64) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	os := out[lo:hi:hi]
	for i, v := range xs {
		u := v + beta*ys[i]
		os[i] = u
		oo += u * u
	}
	return oo
}

// XpbyDotNormRange is XpbyNormRange additionally fused with the partial
// inner product Σ out[i]·w[i] against a third vector — the BiCGStab
// phase-3 kernel g = s - ω t with both <g, r̂0> and <g, g> in one pass.
//
//due:hotpath
func XpbyDotNormRange(x []float64, beta float64, y, out, w []float64, lo, hi int) (ow, oo float64) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	os := out[lo:hi:hi]
	ws := w[lo:hi:hi]
	for i, v := range xs {
		u := v + beta*ys[i]
		os[i] = u
		ow += u * ws[i]
		oo += u * u
	}
	return ow, oo
}
