// Package sparse provides the sparse and dense linear-algebra substrate for
// the resilient Krylov solvers: CSR matrices with row-range kernels suitable
// for strip-mined task decomposition, banded direct solvers for page-sized
// diagonal blocks (Cholesky, LU; dense QR least squares as the fallback),
// and the vector kernels (dot, axpy, norms) that iterative solvers are
// made of.
//
// Everything operates on plain []float64 so that callers can alias pages of
// a larger allocation without copies, which is what the page-level fault
// model in internal/pagemem requires.
package sparse

import (
	"fmt"
	"math"
)

// Dot returns the inner product <x, y>. The slices must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// DotRange returns the partial inner product over the half-open index range
// [lo, hi). It is the strip-mined building block for task-level reductions.
// (The hot range kernels reslice once so the inner loops run bounds-check
// free.)
//
//due:hotpath
func DotRange(x, y []float64, lo, hi int) float64 {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	var s float64
	for i, v := range xs {
		s += v * ys[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyRange computes y[lo:hi] += alpha*x[lo:hi].
//
//due:hotpath
func AxpyRange(alpha float64, x, y []float64, lo, hi int) {
	xs := x[lo:hi]
	ys := y[lo:hi]
	if useAVX2 {
		axpyAVX2(alpha, xs, ys)
		return
	}
	for i, v := range xs {
		ys[i] += alpha * v
	}
}

// Xpby computes y = x + beta*y in place (the CG direction update d = g + beta*d).
func Xpby(x []float64, beta float64, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Xpby length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] = v + beta*y[i]
	}
}

// XpbyRange computes y[lo:hi] = x[lo:hi] + beta*y[lo:hi].
//
//due:hotpath
func XpbyRange(x []float64, beta float64, y []float64, lo, hi int) {
	xs := x[lo:hi]
	ys := y[lo:hi]
	if useAVX2 {
		xpbyAVX2(xs, beta, ys)
		return
	}
	for i, v := range xs {
		ys[i] = v + beta*ys[i]
	}
}

// XpbyOut computes out = x + beta*y, leaving x and y untouched. It is the
// double-buffered direction update of Listing 2: d1 = g + beta*d2.
func XpbyOut(x []float64, beta float64, y, out []float64) {
	if len(x) != len(y) || len(x) != len(out) {
		panic("sparse: XpbyOut length mismatch")
	}
	for i, v := range x {
		out[i] = v + beta*y[i]
	}
}

// XpbyOutRange computes out[lo:hi] = x[lo:hi] + beta*y[lo:hi].
//
//due:hotpath
func XpbyOutRange(x []float64, beta float64, y, out []float64, lo, hi int) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	os := out[lo:hi:hi]
	if useAVX2 {
		xpbyOutAVX2(xs, beta, ys, os)
		return
	}
	for i, v := range xs {
		os[i] = v + beta*ys[i]
	}
}

// Axpy2 computes y += a1*x1 + a2*x2 in place (the BiCGStab iterate update
// x += αd + ωs).
func Axpy2(a1 float64, x1 []float64, a2 float64, x2, y []float64) {
	if len(x1) != len(y) || len(x2) != len(y) {
		panic("sparse: Axpy2 length mismatch")
	}
	Axpy2Range(a1, x1, a2, x2, y, 0, len(y))
}

// Axpy2Range computes y[lo:hi] += a1*x1[lo:hi] + a2*x2[lo:hi].
//
//due:hotpath
func Axpy2Range(a1 float64, x1 []float64, a2 float64, x2, y []float64, lo, hi int) {
	x1s := x1[lo:hi]
	x2s := x2[lo:hi:hi]
	ys := y[lo:hi:hi]
	for i, v := range x1s {
		ys[i] += a1*v + a2*x2s[i]
	}
}

// XpbyzOut computes out = x + beta*(y - omega*z), leaving the inputs
// untouched (the BiCGStab direction update d = g + β(d' - ωq)).
func XpbyzOut(x []float64, beta float64, y []float64, omega float64, z, out []float64) {
	if len(x) != len(y) || len(x) != len(z) || len(x) != len(out) {
		panic("sparse: XpbyzOut length mismatch")
	}
	XpbyzOutRange(x, beta, y, omega, z, out, 0, len(out))
}

// XpbyzOutRange computes out[lo:hi] = x[lo:hi] + beta*(y[lo:hi] - omega*z[lo:hi]).
//
//due:hotpath
func XpbyzOutRange(x []float64, beta float64, y []float64, omega float64, z, out []float64, lo, hi int) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	zs := z[lo:hi:hi]
	os := out[lo:hi:hi]
	for i, v := range xs {
		os[i] = v + beta*(ys[i]-omega*zs[i])
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst; the slices must have equal length.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sparse: Copy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large vectors by scaling with the max magnitude. It is NaN when any
// entry is NaN and +Inf when any other entry is infinite, so a poisoned
// vector never reads as small.
func Norm2(x []float64) float64 {
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		} else if a != a {
			return math.NaN()
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 1) {
		return maxAbs
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// NormInf returns the maximum absolute element of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sub computes out = a - b elementwise.
func Sub(a, b, out []float64) {
	if len(a) != len(b) || len(a) != len(out) {
		panic("sparse: Sub length mismatch")
	}
	for i := range a {
		out[i] = a[i] - b[i]
	}
}

// Add computes out = a + b elementwise.
func Add(a, b, out []float64) {
	if len(a) != len(b) || len(a) != len(out) {
		panic("sparse: Add length mismatch")
	}
	for i := range a {
		out[i] = a[i] + b[i]
	}
}

// HasNonFinite reports whether x contains a NaN or Inf value. Reduction
// tasks use it to refuse contributions from poisoned pages (§3.3.2 of the
// paper: a floating point accumulation can be irremediably corrupted by
// adding +/-Inf or NaN).
func HasNonFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
