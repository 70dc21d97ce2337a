// Fused hot-path kernels, and the one order in which this package adds
// up a range: over [lo, hi), the term of row lo+k goes to lane k&3,
// each lane adds its terms in ascending row order starting from +0.0,
// and the range's partial is (l0 + l1) + (l2 + l3). The order is a
// property of the range alone — not of the shadow, the body, the pool or
// the rank — so DotRange, Dot and every fused partial on every tier
// agree bitwise, and a recovery that rebuilds a lost page's partial with
// DotRange rebuilds the very bits the fused kernel produced. Four lanes
// are the four of one YMM register: the AVX2 bodies add a four-row
// product vector with one VADDPD where a single accumulator would pay
// four dependent additions (DESIGN §5); the Go bodies keep the lanes in
// four registers, four rows per step.
//
// Each fused kernel combines a vector-producing operation with the
// reduction(s) that immediately consume its output, so the solvers'
// steady-state iterations touch every cache line once instead of twice
// or three times. It produces the vector with the operations of its
// unfused composition and its partials in the order above, so it agrees
// bitwise with the producing kernel followed by DotRange.
// reduction_test.go holds every entry point to the order, fused_test.go
// the fused kernels to their compositions, and the DIA shadow's y and
// partials to the generic CSR kernels (TestDIAShadowMatchesGenericCSR).
package sparse

// lanes are the four partial sums of a range in the order above. A
// struct of four fields and not an array: the compiler keeps it in
// registers, where an indexed [4]float64 measured 1.6× slower on
// DotRange.
type lanes struct{ l0, l1, l2, l3 float64 }

// sum is the range's partial.
func (l lanes) sum() float64 { return (l.l0 + l.l1) + (l.l2 + l.l3) }

// add adds v to lane k&3.
func (l lanes) add(k int, v float64) lanes {
	switch k & 3 {
	case 0:
		l.l0 += v
	case 1:
		l.l1 += v
	case 2:
		l.l2 += v
	default:
		l.l3 += v
	}
	return l
}

// add4 adds a, b, c and d to lanes 0–3.
func (l lanes) add4(a, b, c, d float64) lanes {
	return lanes{l.l0 + a, l.l1 + b, l.l2 + c, l.l3 + d}
}

// rot returns l turned by r: lane j of the result is lane (j+r)&3 of l.
// A pass over rows whose first row falls in lane r runs on l.rot(r),
// and l.rot(r).rot(-r) is l.
func (l lanes) rot(r int) lanes {
	switch r & 3 {
	case 1:
		return lanes{l.l1, l.l2, l.l3, l.l0}
	case 2:
		return lanes{l.l2, l.l3, l.l0, l.l1}
	case 3:
		return lanes{l.l3, l.l0, l.l1, l.l2}
	}
	return l
}

// dotLanes adds x[k]·y[k] to lane k&3 of l for every k < len(x); y is
// at least as long as x. DotRange, and the dot pass of every fused
// kernel that takes its partials after the rows are written.
//
//due:hotpath
func dotLanes(l lanes, x, y []float64) lanes {
	y = y[:len(x)]
	if useAVX2 {
		acc := l
		dotAVX2(x, y, &acc)
		return acc
	}
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x4, y4 := x[k:k+4:k+4], y[k:k+4:k+4]
		l = l.add4(x4[0]*y4[0], x4[1]*y4[1], x4[2]*y4[2], x4[3]*y4[3])
	}
	for ; k < len(x); k++ {
		l = l.add(k, x[k]*y[k])
	}
	return l
}

// MulVecDotRange computes y[lo:hi] = (A*x)[lo:hi] fused with the partial
// inner products over the produced rows: xy = Σ x[i]·y[i] and
// yy = Σ y[i]·y[i] for i in [lo, hi). It is the CG phase-1 kernel
// (q = A d with <d,q>) and, with x the BiCGStab intermediate s, the
// phase-2 kernel (t = A s with <t,s> and <t,t>). On the CSR arrays it
// takes four rows a step, their terms straight into the lanes.
//
//due:hotpath
func (a *CSR) MulVecDotRange(x, y []float64, lo, hi int) (xy, yy float64) {
	if a.diaOffs != nil {
		return a.mulRangeDIA(x, y, x, lo, hi)
	}
	if a.sellPtr != nil {
		return a.mulVecDotRangeSELL(x, y, lo, hi)
	}
	var xl, yl lanes
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0, s1, s2, s3 := a.rowSum(x, i), a.rowSum(x, i+1), a.rowSum(x, i+2), a.rowSum(x, i+3)
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
		xl = xl.add4(x[i]*s0, x[i+1]*s1, x[i+2]*s2, x[i+3]*s3)
		yl = yl.add4(s0*s0, s1*s1, s2*s2, s3*s3)
	}
	for ; i < hi; i++ {
		s := a.rowSum(x, i)
		y[i] = s
		xl, yl = xl.add(i-lo, x[i]*s), yl.add(i-lo, s*s)
	}
	return xl.sum(), yl.sum()
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
	var wl lanes
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0, s1, s2, s3 := a.rowSum(x, i), a.rowSum(x, i+1), a.rowSum(x, i+2), a.rowSum(x, i+3)
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
		wl = wl.add4(s0*w[i], s1*w[i+1], s2*w[i+2], s3*w[i+3])
	}
	for ; i < hi; i++ {
		s := a.rowSum(x, i)
		y[i] = s
		wl = wl.add(i-lo, s*w[i])
	}
	return wl.sum()
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
		var acc lanes
		axpyDotAVX2(alpha, xs, ys, &acc)
		return acc.sum()
	}
	var l lanes
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x4, y4 := xs[k:k+4:k+4], ys[k:k+4:k+4]
		u0, u1, u2, u3 := y4[0]+alpha*x4[0], y4[1]+alpha*x4[1], y4[2]+alpha*x4[2], y4[3]+alpha*x4[3]
		y4[0], y4[1], y4[2], y4[3] = u0, u1, u2, u3
		l = l.add4(u0*u0, u1*u1, u2*u2, u3*u3)
	}
	for ; k < len(xs); k++ {
		u := ys[k] + alpha*xs[k]
		ys[k] = u
		l = l.add(k, u*u)
	}
	return l.sum()
}

// XpbyNormRange computes out[lo:hi] = x[lo:hi] + beta*y[lo:hi] fused with
// the partial squared norm Σ out[i]·out[i] of the produced values.
//
//due:hotpath
func XpbyNormRange(x []float64, beta float64, y, out []float64, lo, hi int) (oo float64) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	os := out[lo:hi:hi]
	var l lanes
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x4, y4, o4 := xs[k:k+4:k+4], ys[k:k+4:k+4], os[k:k+4:k+4]
		u0, u1, u2, u3 := x4[0]+beta*y4[0], x4[1]+beta*y4[1], x4[2]+beta*y4[2], x4[3]+beta*y4[3]
		o4[0], o4[1], o4[2], o4[3] = u0, u1, u2, u3
		l = l.add4(u0*u0, u1*u1, u2*u2, u3*u3)
	}
	for ; k < len(xs); k++ {
		u := xs[k] + beta*ys[k]
		os[k] = u
		l = l.add(k, u*u)
	}
	return l.sum()
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
	var wl, ol lanes
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x4, y4, o4, w4 := xs[k:k+4:k+4], ys[k:k+4:k+4], os[k:k+4:k+4], ws[k:k+4:k+4]
		u0, u1, u2, u3 := x4[0]+beta*y4[0], x4[1]+beta*y4[1], x4[2]+beta*y4[2], x4[3]+beta*y4[3]
		o4[0], o4[1], o4[2], o4[3] = u0, u1, u2, u3
		wl = wl.add4(u0*w4[0], u1*w4[1], u2*w4[2], u3*w4[3])
		ol = ol.add4(u0*u0, u1*u1, u2*u2, u3*u3)
	}
	for ; k < len(xs); k++ {
		u := xs[k] + beta*ys[k]
		os[k] = u
		wl = wl.add(k, u*ws[k])
		ol = ol.add(k, u*u)
	}
	return wl.sum(), ol.sum()
}
