// Fixture for the hotpath-alloc analyzer: the banded block-solve shapes
// (column sweeps and row dot products over ragged band storage, the
// pivot swap sequence applied to the right-hand side itself) must lint
// clean, and the solve that permutes into a fresh vector — what the LU
// block solver did on every preconditioner application — must be caught.
package hot

type bandLU struct {
	n, kl, kw int
	ipiv      []int32
	diag      []float64
	upper     []float64
	lcols     []float64
}

// solve mirrors the banded LU solve: swaps interleaved with the column
// eliminations, then unit-stride back substitution.
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
	off = len(f.upper)
	for i := n - 1; i >= 0; i-- {
		w := min(n-1-i, f.kw)
		off -= w
		row := f.upper[off : off+w]
		xs := b[i+1 : i+1+w]
		xs = xs[:len(row)]
		s := b[i]
		for t, u := range row {
			s -= u * xs[t]
		}
		b[i] = s / f.diag[i]
	}
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
