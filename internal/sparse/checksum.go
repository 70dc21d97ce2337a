// ABFT page checksums for silent-error (SDC) coverage: the DUE model of
// the paper assumes the hardware flags every error, but a silent bit flip
// corrupts data without raising any fault bit. The checksum-carrying
// kernel variants below compute, in the same pass that produces a page,
// the XOR of the raw float64 bit patterns of the produced range. XOR over
// bits (rather than a floating-point sum) is order-independent and
// detects EVERY single-bit flip exactly — a rounding checksum could
// absorb low-mantissa flips — and it costs no floating-point operations,
// so the produced values are bitwise identical to the plain kernels'
// (checksum_test.go pins this).
//
// Consumers verify a page's stored checksum before reading it
// (pagemem.Vector.VerifyChecksum): a mismatch turns the silent flip into
// an ordinary page Poison that the existing exact FEIR/AFEIR relations
// recover. Verification re-streams only the one 4 KiB page the kernel is
// about to read anyway, so it adds no extra sweep over the vector.
package sparse

import "math"

// ChecksumRange returns the XOR of the IEEE-754 bit patterns of
// x[lo:hi] — the ABFT page checksum of an already-produced range (used
// when the producing kernel, e.g. the shadow-dispatched SpMV, cannot
// carry the fold itself; the page is still cache-hot).
//
//due:hotpath
func ChecksumRange(x []float64, lo, hi int) uint64 {
	xs := x[lo:hi]
	var ck uint64
	for _, v := range xs {
		ck ^= math.Float64bits(v)
	}
	return ck
}

// CopyChecksumRange copies src[lo:hi] into dst[lo:hi] and returns the
// page checksum of the copied values — the checksum-carrying beta=0
// direction update d = g.
//
//due:hotpath
func CopyChecksumRange(dst, src []float64, lo, hi int) uint64 {
	ss := src[lo:hi]
	ds := dst[lo:hi:hi]
	var ck uint64
	for i, v := range ss {
		ds[i] = v
		ck ^= math.Float64bits(v)
	}
	return ck
}

// XpbyOutChecksumRange computes out[lo:hi] = x[lo:hi] + beta*y[lo:hi]
// and returns the page checksum of the produced values — the
// checksum-carrying double-buffered direction update of Listing 2.
// The arithmetic is identical to XpbyOutRange.
//
//due:hotpath
func XpbyOutChecksumRange(x []float64, beta float64, y, out []float64, lo, hi int) uint64 {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	os := out[lo:hi:hi]
	var ck uint64
	for i, v := range xs {
		u := v + beta*ys[i]
		os[i] = u
		ck ^= math.Float64bits(u)
	}
	return ck
}

// AxpyChecksumRange computes y[lo:hi] += alpha*x[lo:hi] and returns the
// page checksum of the updated values — the checksum-carrying iterate
// update x += α d. The arithmetic is identical to AxpyRange.
//
//due:hotpath
func AxpyChecksumRange(alpha float64, x, y []float64, lo, hi int) uint64 {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	var ck uint64
	for i, v := range xs {
		u := ys[i] + alpha*v
		ys[i] = u
		ck ^= math.Float64bits(u)
	}
	return ck
}

// AxpyDotChecksumRange computes y[lo:hi] += alpha*x[lo:hi] fused with
// the partial squared norm of the updated values AND their page
// checksum — the checksum-carrying CG phase-2 kernel g -= α q with
// ε = <g,g>. The arithmetic, and the order of the norm's additions
// (fused.go), are AxpyDotRange's.
//
//due:hotpath
func AxpyDotChecksumRange(alpha float64, x, y []float64, lo, hi int) (yy float64, ck uint64) {
	xs := x[lo:hi]
	ys := y[lo:hi:hi]
	var l lanes
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x4, y4 := xs[k:k+4:k+4], ys[k:k+4:k+4]
		u0, u1, u2, u3 := y4[0]+alpha*x4[0], y4[1]+alpha*x4[1], y4[2]+alpha*x4[2], y4[3]+alpha*x4[3]
		y4[0], y4[1], y4[2], y4[3] = u0, u1, u2, u3
		l = l.add4(u0*u0, u1*u1, u2*u2, u3*u3)
		ck ^= math.Float64bits(u0) ^ math.Float64bits(u1) ^ math.Float64bits(u2) ^ math.Float64bits(u3)
	}
	for ; k < len(xs); k++ {
		u := ys[k] + alpha*xs[k]
		ys[k] = u
		l = l.add(k, u*u)
		ck ^= math.Float64bits(u)
	}
	return l.sum(), ck
}
