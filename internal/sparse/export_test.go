package sparse

// The halves of the Cholesky block solve, for band_test.go's benchmarks
// and its pin on the forward pass's summation order.

// ForwardSubst solves L*y = b in place as solve does.
func (c *Cholesky) ForwardSubst(b []float64) { c.forward(b) }

// BackSubst solves Lᵀ*x = y in place as solve does.
func (c *Cholesky) BackSubst(b []float64) { backSubst(c.n, c.bw, c.diag, c.cols, b) }

// ForwardSubstByColumn is the column sweep taken one column at a time:
// the reference for the order in which the grouped sweep must subtract.
func (c *Cholesky) ForwardSubstByColumn(b []float64) {
	off := 0
	for k := 0; k < c.n; k++ {
		w := min(c.n-1-k, c.bw)
		yk := b[k] / c.diag[k]
		b[k] = yk
		for t, l := range c.cols[off : off+w] {
			b[k+1+t] -= l * yk
		}
		off += w
	}
}

// Swaps counts the elimination steps that interchanged rows.
func (f *LU) Swaps() int {
	n := 0
	for k, p := range f.ipiv {
		if int(p) != k {
			n++
		}
	}
	return n
}
