package sparse

// MulMatRange computes rows [lo, hi) of the product of A with the
// interleaved n-by-b multivector x (element (i, j) at x[i*b+j]), writing
// into the same layout in y: y[i*b+j] = sum_k A[i][k] * x[k*b+j]. One
// generic row loop over the rows Row reads: per column it visits a row's
// nonzeros in ascending column order from +0.0, the order of every
// MulVecRange shadow, so each column of y is bitwise an independent
// MulVecRange over that column. No solver calls it — DESIGN §11 says why
// there is no batched path; it is kept as the multi-RHS kernel probe.
//
//due:hotpath
func (a *CSR) MulMatRange(x, y []float64, b, lo, hi int) {
	var buf RowBuf
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i, &buf)
		yr := y[i*b : i*b+b : i*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			cb := int(c) * b
			xr := x[cb : cb+b : cb+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
	}
}
