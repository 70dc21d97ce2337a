package sparse

import "slices"

// Diagonal (DIA) kernel shadow: stencil and banded matrices — the
// paper's whole workload family — concentrate their nonzeros on a
// handful of diagonals. Storing those diagonals as dense padded arrays
// lets the SpMV kernels stream values in long contiguous loops with NO
// index loads and NO gather indirection. The shadow is built by
// BuildIndex32 when the matrix is square and its distinct offsets are
// few enough that the padding wastes at most half the storage
// (maxDiaOffsets / diaWasteFactor); every other matrix keeps the CSR
// kernels.
//
// Traversal: a row block takes its diagonals in groups of up to diaGroup
// consecutive offsets, and a group's loop keeps each row's running sum
// in a register across the group's products — one load and one store of
// y per row per GROUP, where a diagonal-by-diagonal sweep pays them per
// product (and a zero pass before, and a reduction pass after): 68
// memory operations per row of a 27-point stencil instead of 111, 14
// instead of 23 for a 5-point one. The first group starts its sums from
// 0.0 and writes y, later groups resume from y, and the last one carries
// the reduction partials of the fused entry points. Rows are processed
// in blocks (diaBlock) so the y window a group hands to the next is
// still in L1. A group's loop covers the rows every one of its diagonals
// reaches; the rows left over — they exist only in blocks within max|o|
// of either end of the matrix — take the group's diagonals one by one.
//
// Exactness: per row the products are added one at a time in ascending
// offset order, which is exactly the ascending column order of the CSR
// rows, starting from the same +0.0 (a padded zero entry contributes
// +0.0), and the partials are taken in ascending row order with one
// accumulator each, carried from block to block — so y and the partials
// match the CSR kernels bitwise however the diagonals are grouped.
// Caveat inherited from the padding: a padded slot multiplies 0 by an
// x element the CSR row never reads, so a non-finite value THERE would
// produce NaN. The solvers never feed non-finite data to an SpMV —
// faults are repaired or blanked at the phase boundary before any
// matvec — and the engine's reductions guard with HasNonFinite anyway.

const (
	maxDiaOffsets  = 32
	diaWasteFactor = 2
	diaBlock       = 1024 // rows per block: keeps the y window L1-hot
	// diaGroup is the number of diagonals one loop accumulates in a
	// register: 2·diaGroup+2 slice pointers must fit the 16 integer
	// registers (measured 3/4/5 on BenchmarkSpMVDIA, DESIGN §5).
	diaGroup = 4
)

// buildDIA populates the diagonal shadow, or clears it when the matrix
// does not qualify.
func (a *CSR) buildDIA() {
	a.diaOffs, a.diaVals = nil, nil
	if a.N != a.M || a.N == 0 || len(a.Vals) == 0 {
		return
	}
	// seen[o+N-1] marks offset o = col - row, which lies in (-N, N).
	seen := make([]bool, 2*a.N-1)
	var offs []int
	for i := 0; i < a.N; i++ {
		for _, c := range a.Cols[a.RowPtr[i]:a.RowPtr[i+1]] {
			if o := c - i; !seen[o+a.N-1] {
				seen[o+a.N-1] = true
				if offs = append(offs, o); len(offs) > maxDiaOffsets {
					return
				}
			}
		}
	}
	if len(offs)*a.N > diaWasteFactor*len(a.Vals) {
		return
	}
	// Ascending offsets == ascending in-row column order: bitwise parity
	// with the CSR accumulation.
	slices.Sort(offs)
	vals := make([][]float64, len(offs))
	for d := range vals {
		vals[d] = make([]float64, a.N)
	}
	// Columns ascend within a row, so a row's offsets do too: one cursor
	// per row walks the sorted offsets to each value's diagonal.
	for i := 0; i < a.N; i++ {
		d := 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			for offs[d] != a.Cols[k]-i {
				d++
			}
			vals[d][i] = a.Vals[k]
		}
	}
	a.diaOffs, a.diaVals = offs, vals
}

// diaClip returns the rows of [r0, r1) on which every diagonal with an
// offset in [oLo, oHi] has an x element in an n-column matrix, clamped
// so that r0 <= i0 <= i1 <= r1 (a block out of the diagonals' reach
// comes back empty, not inverted). The one statement of the DIA clip
// arithmetic: diaBlockMul calls it per group and, near either end of the
// matrix, per diagonal.
//
//due:hotpath
func diaClip(oLo, oHi, r0, r1, n int) (i0, i1 int) {
	i0 = min(max(r0, -oLo), r1)
	return i0, max(i0, min(r1, n-oHi))
}

// diaBlockMul computes y[b0:b1] = (A*x)[b0:b1] group by group and, when
// w is non-nil, adds the block's partials Σ y[i]·w[i] and Σ y[i]·y[i] to
// wy and yy in ascending row order. The partials ride the last group's
// loop; a block that group does not cover whole (or whose only group it
// is — that loop writes, it does not resume) takes them in a second pass
// while y is L1-hot. w may alias x or y.
//
//due:hotpath
func (a *CSR) diaBlockMul(x, y, w []float64, b0, b1 int, wy, yy float64) (float64, float64) {
	offs, n := a.diaOffs, a.N
	var vs, xs [diaGroup][]float64
	fused := false
	for d := 0; d < len(offs); d += diaGroup {
		g := min(diaGroup, len(offs)-d)
		i0, i1 := diaClip(offs[d], offs[d+g-1], b0, b1, n)
		if i0 < i1 {
			for j, o := range offs[d : d+g] {
				vs[j], xs[j] = a.diaVals[d+j][i0:i1], x[i0+o:i1+o]
			}
			switch {
			case d == 0:
				diaWrite(y[i0:i1], &vs, &xs, g)
			case w != nil && d+g == len(offs) && i0 == b0 && i1 == b1:
				wy, yy = diaAccumDot(y[i0:i1], w[i0:i1], &vs, &xs, g, wy, yy)
				fused = true
			default:
				diaAccum(y[i0:i1], &vs, &xs, g)
			}
		}
		if i0 == b0 && i1 == b1 {
			continue
		}
		// Within max|o| of either end of the matrix: the rows outside
		// the common range, diagonal by diagonal in the same order.
		if d == 0 {
			clear(y[b0:i0])
			clear(y[i1:b1])
		}
		for j, o := range offs[d : d+g] {
			for _, r := range [2][2]int{{b0, i0}, {i1, b1}} {
				if e0, e1 := diaClip(o, o, r[0], r[1], n); e0 < e1 {
					vs[0], xs[0] = a.diaVals[d+j][e0:e1], x[e0+o:e1+o]
					diaAccum(y[e0:e1], &vs, &xs, 1)
				}
			}
		}
	}
	if w != nil && !fused {
		ws := w[b0:b1]
		for k, u := range y[b0:b1] {
			wy += u * ws[k]
			yy += u * u
		}
	}
	return wy, yy
}

// mulRangeDIA computes y[lo:hi] = (A*x)[lo:hi] from the diagonal shadow
// and, when w is non-nil, the fused partials Σ y[i]·w[i] and Σ y[i]·y[i]
// over [lo, hi): MulVecRange passes nil, MulVecDotRange passes x (its xy
// is <x, y>), MulVecDotVecRange passes its w and drops the second sum.
//
//due:hotpath
func (a *CSR) mulRangeDIA(x, y, w []float64, lo, hi int) (wy, yy float64) {
	for b0 := lo; b0 < hi; b0 += diaBlock {
		wy, yy = a.diaBlockMul(x, y, w, b0, min(b0+diaBlock, hi), wy, yy)
	}
	return wy, yy
}

// diaWrite, diaAccum and diaAccumDot are the three bodies of a group of
// g diagonals over len(y) rows — start the row sums at 0.0 and write y,
// resume them from y, resume them and take the partials of the finished
// rows — each written out for g = 1…diaGroup. vs[j] and xs[j] are
// diagonal j's values and its shifted x window; every slice is cut to
// len(y) so the loops carry no bounds checks. With AVX2 each runs its
// assembly body instead (simd_amd64.s), four rows per instruction and
// bitwise the Go loop's result.
//
//due:hotpath
func diaWrite(y []float64, vs, xs *[diaGroup][]float64, g int) {
	m := len(y)
	if useAVX2 {
		diaWindows(vs, xs, g, m)
		diaWriteAVX2(y, vs, xs, g)
		return
	}
	switch g {
	case 1:
		v0, x0 := vs[0][:m], xs[0][:m]
		for k := range y {
			s := 0.0
			s += v0[k] * x0[k]
			y[k] = s
		}
	case 2:
		v0, v1, x0, x1 := vs[0][:m], vs[1][:m], xs[0][:m], xs[1][:m]
		for k := range y {
			s := 0.0
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			y[k] = s
		}
	case 3:
		v0, v1, v2 := vs[0][:m], vs[1][:m], vs[2][:m]
		x0, x1, x2 := xs[0][:m], xs[1][:m], xs[2][:m]
		for k := range y {
			s := 0.0
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			y[k] = s
		}
	case 4:
		v0, v1, v2, v3 := vs[0][:m], vs[1][:m], vs[2][:m], vs[3][:m]
		x0, x1, x2, x3 := xs[0][:m], xs[1][:m], xs[2][:m], xs[3][:m]
		for k := range y {
			s := 0.0
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			s += v3[k] * x3[k]
			y[k] = s
		}
	}
}

//due:hotpath
func diaAccum(y []float64, vs, xs *[diaGroup][]float64, g int) {
	m := len(y)
	if useAVX2 {
		diaWindows(vs, xs, g, m)
		diaAccumAVX2(y, vs, xs, g)
		return
	}
	switch g {
	case 1:
		v0, x0 := vs[0][:m], xs[0][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			y[k] = s
		}
	case 2:
		v0, v1, x0, x1 := vs[0][:m], vs[1][:m], xs[0][:m], xs[1][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			y[k] = s
		}
	case 3:
		v0, v1, v2 := vs[0][:m], vs[1][:m], vs[2][:m]
		x0, x1, x2 := xs[0][:m], xs[1][:m], xs[2][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			y[k] = s
		}
	case 4:
		v0, v1, v2, v3 := vs[0][:m], vs[1][:m], vs[2][:m], vs[3][:m]
		x0, x1, x2, x3 := xs[0][:m], xs[1][:m], xs[2][:m], xs[3][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			s += v3[k] * x3[k]
			y[k] = s
		}
	}
}

// diaAccumDot stores y[k] before it loads w[k]: w may alias y.
//
//due:hotpath
func diaAccumDot(y, w []float64, vs, xs *[diaGroup][]float64, g int, wy, yy float64) (float64, float64) {
	m := len(y)
	w = w[:m]
	if useAVX2 {
		diaWindows(vs, xs, g, m)
		return diaAccumDotAVX2(y, w, vs, xs, g, wy, yy)
	}
	switch g {
	case 1:
		v0, x0 := vs[0][:m], xs[0][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			y[k] = s
			wy += s * w[k]
			yy += s * s
		}
	case 2:
		v0, v1, x0, x1 := vs[0][:m], vs[1][:m], xs[0][:m], xs[1][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			y[k] = s
			wy += s * w[k]
			yy += s * s
		}
	case 3:
		v0, v1, v2 := vs[0][:m], vs[1][:m], vs[2][:m]
		x0, x1, x2 := xs[0][:m], xs[1][:m], xs[2][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			y[k] = s
			wy += s * w[k]
			yy += s * s
		}
	case 4:
		v0, v1, v2, v3 := vs[0][:m], vs[1][:m], vs[2][:m], vs[3][:m]
		x0, x1, x2, x3 := xs[0][:m], xs[1][:m], xs[2][:m], xs[3][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			s += v2[k] * x2[k]
			s += v3[k] * x3[k]
			y[k] = s
			wy += s * w[k]
			yy += s * s
		}
	}
	return wy, yy
}

// diaWindows makes the checks the Go bodies' reslicing makes — every
// window of the group reaches m rows — before an assembly body reads
// them unchecked.
//
//due:hotpath
func diaWindows(vs, xs *[diaGroup][]float64, g, m int) {
	for j := range g {
		_, _ = vs[j][:m], xs[j][:m]
	}
}
