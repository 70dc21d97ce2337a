// Fixture for the hotpath-alloc analyzer: multi-RHS kernel shapes (SpMM
// row loops over interleaved multivectors, width-specialized bodies
// using slice-to-array-pointer views, rolling column counters) must lint
// clean, and the tempting per-call accumulator allocation must be caught.
package hot

type csrish struct {
	rowPtr []int32
	cols   []int32
	vals   []float64
}

// spmmW4 is a width-4 CSR SpMM: a local fixed-size accumulator array
// and (*[4]float64) views allocate nothing.
//
//due:hotpath
func (a *csrish) spmmW4(x, y []float64, lo, hi int) {
	const b = 4
	for i := lo; i < hi; i++ {
		row := a.rowPtr[i]
		cols := a.cols[row:a.rowPtr[i+1]]
		vals := a.vals[row:a.rowPtr[i+1]]
		var acc [b]float64
		for k, c := range cols {
			v := vals[k]
			xr := (*[b]float64)(x[int(c)*b:])
			acc[0] += v * xr[0]
			acc[1] += v * xr[1]
			acc[2] += v * xr[2]
			acc[3] += v * xr[3]
		}
		*(*[b]float64)(y[i*b:]) = acc
	}
}

// batchAxpy is a flat interleaved multivector pass: per-column scalars
// indexed by a rolling counter instead of a division.
//
//due:hotpath
func batchAxpy(alpha []float64, x, y []float64, b int) {
	j := 0
	for i := range x {
		y[i] += alpha[j] * x[i]
		if j++; j == b {
			j = 0
		}
	}
}

// batchAxpyBad seeds the tempting violation: sizing the per-column
// accumulator off the runtime width allocates on every call.
//
//due:hotpath
func batchAxpyBad(alpha []float64, x, y []float64, b int) {
	acc := make([]float64, b) // want "make allocates"
	for i := range x {
		acc[i%b] += alpha[i%b] * x[i]
	}
	for i := range y {
		y[i] += acc[i%b]
	}
}
