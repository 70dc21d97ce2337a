// Fixture for the hotpath-alloc analyzer: the banded block-solve shapes
// (column sweeps over ragged band storage, the pivot swap sequence applied
// to the right-hand side itself, back substitution four rows at a time —
// sub-slices cut to one length, an accumulator per row, the triangle
// between the rows written out; the grouped forward sweep is the same
// shapes transposed) must lint clean, and the solve that permutes into a
// fresh vector — what the LU block solver did on every preconditioner
// application — must be caught.
package hot

type bandLU struct {
	n, kl, kw int
	ipiv      []int32
	diag      []float64
	upper     []float64
	lcols     []float64
}

// solve mirrors the banded LU solve: swaps interleaved with the column
// eliminations, then the shared back substitution.
//
//due:hotpath
func (f *bandLU) solve(b []float64) {
	n := f.n
	off := 0
	for k := 0; k < n; k++ {
		if p := int(f.ipiv[k]); p != k {
			b[k], b[p] = b[p], b[k]
		}
		w := min(n-1-k, f.kl)
		col := f.lcols[off : off+w]
		ys := b[k+1 : k+1+w]
		ys = ys[:len(col)]
		bk := b[k]
		for t, m := range col {
			ys[t] -= m * bk
		}
		off += w
	}
	backSubst(n, f.kw, f.diag, f.upper, b)
}

//due:hotpath
func backSubst(n, w int, diag, rows, b []float64) {
	i, off := n-1, len(rows)
	for ; w >= 3 && i >= 3; i -= 4 {
		l0, l1, l2, l3 := min(n+2-i, w), min(n+1-i, w), min(n-i, w), min(n-1-i, w)
		r3 := rows[off-l3 : off]
		r2 := rows[off-l3-l2 : off-l3]
		r1 := rows[off-l3-l2-l1 : off-l3-l2]
		r0 := rows[off-l3-l2-l1-l0 : off-l3-l2-l1]
		off -= l0 + l1 + l2 + l3
		m := l0 - 3
		rest := b[i+1+m:]
		s0 := b[i-3]
		s1 := subDesc(b[i-2], r1[2+m:], rest)
		s2 := subDesc(b[i-1], r2[1+m:], rest)
		s3 := subDesc(b[i], r3[m:], rest)
		xs := b[i+1 : i+1+m]
		a0, a1, a2, a3 := r0[3:][:len(xs)], r1[2:][:len(xs)], r2[1:][:len(xs)], r3[:len(xs)]
		for t := len(xs) - 1; t >= 0; t-- {
			x := xs[t]
			s0 -= a0[t] * x
			s1 -= a1[t] * x
			s2 -= a2[t] * x
			s3 -= a3[t] * x
		}
		x3 := s3 / diag[i]
		s2 -= r2[0] * x3
		x2 := s2 / diag[i-1]
		s1 -= r1[1]*x3 + r1[0]*x2
		x1 := s1 / diag[i-2]
		s0 -= r0[2]*x3 + r0[1]*x2 + r0[0]*x1
		b[i-3], b[i-2], b[i-1], b[i] = s0/diag[i-3], x1, x2, x3
	}
	for ; i >= 0; i-- {
		l := min(n-1-i, w)
		off -= l
		b[i] = subDesc(b[i], rows[off:off+l], b[i+1:]) / diag[i]
	}
}

//due:hotpath
func subDesc(s float64, row, x []float64) float64 {
	x = x[:len(row)]
	for t := len(row) - 1; t >= 0; t-- {
		s -= row[t] * x[t]
	}
	return s
}

// solvePermutedCopy seeds the violation the swap sequence replaced: the
// factor is shared between concurrent solves, so the tempting fix of a
// scratch vector inside it is not available either.
//
//due:hotpath
func (f *bandLU) solvePermutedCopy(b []float64, piv []int) {
	x := make([]float64, f.n) // want "make allocates"
	for i := range x {
		x[i] = b[piv[i]]
	}
	copy(b, x)
}
