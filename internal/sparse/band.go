package sparse

import (
	"fmt"
	"math"
)

// Banded direct factors of the page-sized diagonal blocks. A block of a
// stencil-like operator is banded, renumbered (order.go) its band is a
// handful of rows wide (half-bandwidth 4–8 inside a 512×512 page block of
// a 2-D grid, where the natural order gives the grid's width, 64–128),
// and neither Cholesky nor LU with row pivoting leaves that band: every
// entry outside it is an exact structural zero in the factor too. The
// factors below store only the band and skip exactly the products with
// those zeros, in the summation order of the textbook dense algorithms —
// so their results equal the dense factor's of the renumbered block bit
// for bit, a full block is simply the widest band, and there is one
// factor path for every bandwidth and order.
//
// Storage is triangular-ragged: a row or column of the band is clipped to
// the matrix, so at full bandwidth LU holds n² doubles, what the dense n×n
// factor did, and Cholesky half of that.

// blockRows enumerates the stored entries (j, v) of row i of a square
// block, in the block's own index space and in no particular order (a
// renumbered block's rows are not ascending). It is all a factor
// constructor reads, so a block is factorized straight from its source —
// the rows of A (spanRows) or a Dense — without a dense temporary.
type blockRows func(i int, visit func(j int, v float64))

// denseRows reads the nonzeros of a dense block.
func denseRows(d *Dense) blockRows {
	return func(i int, visit func(j int, v float64)) {
		for j, v := range d.Data[i*d.Cols : (i+1)*d.Cols] {
			if v != 0 {
				visit(j, v)
			}
		}
	}
}

// span is one contiguous index range [lo, hi) of A placed at off in the
// index space of a block made of several such ranges.
type span struct{ lo, hi, off int }

// spanRows reads the block A[S, S] for the index set S given as sorted,
// disjoint spans whose offsets concatenate them: one span is a diagonal
// block, several are the coupled system of §2.4. A factor reads every row
// several times (the bandwidths, the renumbering's sweeps, the factor
// itself), so the block's entries are gathered through Row once, in
// ascending column order, into arrays in the block's own index space.
func (a *CSR) spanRows(spans []span) blockRows {
	last := spans[len(spans)-1]
	n := last.off + last.hi - last.lo
	rowPtr := make([]int32, n+1)
	cols := make([]int32, 0, n*(a.NNZ()/max(a.N, 1)+1))
	vals := make([]float64, 0, cap(cols))
	var buf RowBuf
	for _, s := range spans {
		for g := s.lo; g < s.hi; g++ {
			rc, rv := a.Row(g, &buf)
			c := 0 // columns ascend within a row, so one cursor walks the spans
			for p, col32 := range rc {
				col := int(col32)
				for c < len(spans) && col >= spans[c].hi {
					c++
				}
				if c == len(spans) {
					break
				}
				if col >= spans[c].lo {
					cols = append(cols, int32(spans[c].off+col-spans[c].lo))
					vals = append(vals, rv[p])
				}
			}
			rowPtr[s.off+g-s.lo+1] = int32(len(cols))
		}
	}
	return func(i int, visit func(j int, v float64)) {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			visit(int(cols[k]), vals[k])
		}
	}
}

// entries visits every stored entry (i, j, v) of a block, row by row,
// through one visitor for all the rows.
func entries(n int, rows blockRows, f func(i, j int, v float64)) {
	var i int
	row := func(j int, v float64) { f(i, j, v) }
	for i = 0; i < n; i++ {
		rows(i, row)
	}
}

// bandwidths returns the lower and upper half-bandwidths of a block: the
// largest i-j and j-i over its stored entries.
func bandwidths(n int, rows blockRows) (kl, ku int) {
	entries(n, rows, func(i, j int, _ float64) {
		kl = max(kl, i-j)
		ku = max(ku, j-i)
	})
	return kl, ku
}

// banded is a block ready to be factored: its rows, which are those of
// P A Pᵀ for the order o, and their half-bandwidths.
type banded struct {
	rows   blockRows
	kl, ku int
	o      order
}

func newBanded(n int, rows blockRows, o order) banded {
	kl, ku := bandwidths(n, rows)
	return banded{rows: rows, kl: kl, ku: ku, o: o}
}

// bandOff is the length of the first i rows of a strictly triangular band
// of half-bandwidth w, row r holding min(r, w) entries: the offset of row
// i in lower-band storage. The mirrored (upper) band, whose row r holds
// min(w, n-1-r) entries, starts row i at bandOff(n, w) - bandOff(n-i, w).
func bandOff(i, w int) int {
	if i <= w+1 {
		return i * (i - 1) / 2
	}
	return w*(w+1)/2 + (i-w-1)*w
}

// ----------------------------------------------------------------------
// Cholesky factorization: for SPD diagonal blocks (the paper's common case,
// §2.3 — "if we know that a diagonal block is non-singular, e.g. when A is
// SPD, we solve the inverse block relations with a direct solver").
// ----------------------------------------------------------------------

// Cholesky holds the lower-triangular factor L with P A Pᵀ = L*Lᵀ, P
// the block's order (the identity from NewCholesky), inside the
// half-bandwidth bw of P A Pᵀ's lower triangle, stored by columns: forward
// substitution sweeps them as updates, back substitution as dot products,
// so one copy serves both at unit stride.
type Cholesky struct {
	n, bw int
	diag  []float64 // l_ii
	cols  []float64 // column j: l_ij for i in (j, min(n-1,j+bw)], columns concatenated
	o     order     // the factor is of P A Pᵀ
}

// NewCholesky factorizes the SPD matrix a, reading its lower triangle. It
// returns ErrSingular when a pivot is non-positive (a is not positive
// definite to working precision).
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	return newCholesky(a.Rows, newBanded(a.Rows, denseRows(a), nil))
}

func newCholesky(n int, b banded) (*Cholesky, error) {
	bw := b.kl
	size := bandOff(n, bw)
	c := &Cholesky{n: n, bw: bw, diag: make([]float64, n), cols: make([]float64, size), o: b.o}
	entries(n, b.rows, func(i, j int, v float64) {
		switch {
		case j == i:
			c.diag[i] = v
		case j < i:
			c.cols[size-bandOff(n-j, bw)+i-j-1] = v
		}
	})
	// Right-looking, in place: once column j is final it is subtracted
	// from the columns to its right, so entry (i,k) still collects its
	// products l_ij*l_kj in ascending j, as the dot-product form does.
	off := 0
	for j := 0; j < n; j++ {
		d := c.diag[j]
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		c.diag[j] = d
		w := min(n-1-j, bw)
		col := c.cols[off : off+w]
		for t := range col {
			col[t] /= d
		}
		off += w
		offK := off
		for t, lkj := range col { // column k = j+1+t
			c.diag[j+1+t] -= lkj * lkj
			below := col[t+1:]
			ck := c.cols[offK : offK+len(below)]
			for u, lij := range below {
				ck[u] -= lij * lkj
			}
			offK += min(n-2-j-t, bw)
		}
	}
	return c, nil
}

// Bytes returns the memory the factor holds.
func (c *Cholesky) Bytes() int64 { return 8*int64(len(c.diag)+len(c.cols)) + 4*int64(len(c.o)) }

// cholBytes is the size of a Cholesky factor of half-bandwidth bw, its
// order aside.
func cholBytes(n, bw int) int64 { return 8 * int64(n+bandOff(n, bw)) }

// Solve solves A*x = b in place: b is overwritten with x.
func (c *Cholesky) Solve(b []float64) {
	if len(b) != c.n {
		panic(fmt.Sprintf("sparse: Cholesky.Solve dim %d want %d", len(b), c.n))
	}
	c.solve(b)
}

// SolveInPlace implements BlockSolver.
func (c *Cholesky) SolveInPlace(rhs []float64) error {
	c.Solve(rhs)
	return nil
}

// solve runs forward then back substitution on P b and returns Pᵀ of the
// result. Forward, every entry collects its products in ascending-k
// order; backward, in descending.
//
//due:hotpath
func (c *Cholesky) solve(b []float64) {
	c.o.gather(b)
	c.forward(b)
	backSubst(c.n, c.bw, c.diag, c.cols, b) // Lᵀ*x = y: row i of Lᵀ is column i of L
	c.o.scatter(b)
}

// forward solves L*y = b in place as a column sweep, four columns per
// pass: each y entry is loaded once, has the four products subtracted in
// column order, and is stored once.
//
//due:hotpath
func (c *Cholesky) forward(b []float64) {
	n, bw := c.n, c.bw
	k, off := 0, 0
	for ; bw >= 3 && k+3 < n; k += 4 { // columns k..k+3
		l0, l1, l2, l3 := min(n-1-k, bw), min(n-2-k, bw), min(n-3-k, bw), min(n-4-k, bw)
		c0 := c.cols[off : off+l0]
		c1 := c.cols[off+l0 : off+l0+l1]
		c2 := c.cols[off+l0+l1 : off+l0+l1+l2]
		c3 := c.cols[off+l0+l1+l2 : off+l0+l1+l2+l3]
		off += l0 + l1 + l2 + l3
		// The 4×4 triangle between the columns, serially.
		y0 := b[k] / c.diag[k]
		v := b[k+1]
		v -= c0[0] * y0
		y1 := v / c.diag[k+1]
		v = b[k+2]
		v -= c0[1] * y0
		v -= c1[0] * y1
		y2 := v / c.diag[k+2]
		v = b[k+3]
		v -= c0[2] * y0
		v -= c1[1] * y1
		v -= c2[0] * y2
		y3 := v / c.diag[k+3]
		b[k], b[k+1], b[k+2], b[k+3] = y0, y1, y2, y3
		// Rows all four columns reach: one load and one store per entry.
		m := l0 - 3
		ys := b[k+4 : k+4+m]
		a0, a1, a2, a3 := c0[3:][:len(ys)], c1[2:][:len(ys)], c2[1:][:len(ys)], c3[:len(ys)]
		for t, v := range ys {
			v -= a0[t] * y0
			v -= a1[t] * y1
			v -= a2[t] * y2
			v -= a3[t] * y3
			ys[t] = v
		}
		// Rows only the later columns reach (none at the matrix edge).
		rest := b[k+4+m:]
		subScaled(rest, c1[2+m:], y1)
		subScaled(rest, c2[1+m:], y2)
		subScaled(rest, c3[m:], y3)
	}
	for ; k < n; k++ {
		w := min(n-1-k, bw)
		yk := b[k] / c.diag[k]
		b[k] = yk
		subScaled(b[k+1:], c.cols[off:off+w], yk)
		off += w
	}
}

// subScaled subtracts a*col from the head of y.
//
//due:hotpath
func subScaled(y, col []float64, a float64) {
	y = y[:len(col)]
	for t, l := range col {
		y[t] -= l * a
	}
}

// backSubst solves U*x = y in place for the upper-triangular band whose
// row i holds u_ij for j in (i, min(n-1, i+w)], rows concatenated: LU's
// upper, or Cholesky's columns read as the rows of Lᵀ. Each row subtracts
// its products in descending j, the order of reference BLAS dtbsv/dtrsv:
// the x values a row waits for are then the last it needs, not the first,
// so four rows run at once, one accumulator each, sharing every x load.
//
//due:hotpath
func backSubst(n, w int, diag, rows, b []float64) {
	i, off := n-1, len(rows)
	for ; w >= 3 && i >= 3; i -= 4 { // rows i-3..i
		l0, l1, l2, l3 := min(n+2-i, w), min(n+1-i, w), min(n-i, w), min(n-1-i, w)
		r3 := rows[off-l3 : off]
		r2 := rows[off-l3-l2 : off-l3]
		r1 := rows[off-l3-l2-l1 : off-l3-l2]
		r0 := rows[off-l3-l2-l1-l0 : off-l3-l2-l1]
		off -= l0 + l1 + l2 + l3
		// Columns only the later rows reach (none at the matrix edge).
		m := l0 - 3
		rest := b[i+1+m:]
		s0 := b[i-3]
		s1 := subDesc(b[i-2], r1[2+m:], rest)
		s2 := subDesc(b[i-1], r2[1+m:], rest)
		s3 := subDesc(b[i], r3[m:], rest)
		// Columns all four rows reach: one x load for four products.
		xs := b[i+1 : i+1+m]
		a0, a1, a2, a3 := r0[3:][:len(xs)], r1[2:][:len(xs)], r2[1:][:len(xs)], r3[:len(xs)]
		for t := len(xs) - 1; t >= 0; t-- {
			x := xs[t]
			s0 -= a0[t] * x
			s1 -= a1[t] * x
			s2 -= a2[t] * x
			s3 -= a3[t] * x
		}
		// The 4×4 triangle between the rows, serially.
		x3 := s3 / diag[i]
		s2 -= r2[0] * x3
		x2 := s2 / diag[i-1]
		s1 -= r1[1] * x3
		s1 -= r1[0] * x2
		x1 := s1 / diag[i-2]
		s0 -= r0[2] * x3
		s0 -= r0[1] * x2
		s0 -= r0[0] * x1
		b[i-3], b[i-2], b[i-1], b[i] = s0/diag[i-3], x1, x2, x3
	}
	for ; i >= 0; i-- {
		l := min(n-1-i, w)
		off -= l
		b[i] = subDesc(b[i], rows[off:off+l], b[i+1:]) / diag[i]
	}
}

// subDesc returns s less the products row[t]*x[t], t descending.
//
//due:hotpath
func subDesc(s float64, row, x []float64) float64 {
	x = x[:len(row)]
	for t := len(row) - 1; t >= 0; t-- {
		s -= row[t] * x[t]
	}
	return s
}

// ----------------------------------------------------------------------
// LU with partial pivoting: for non-symmetric diagonal blocks (BiCGStab /
// GMRES operate on general matrices).
// ----------------------------------------------------------------------

// LU holds a Π P A Pᵀ = LU factorization with partial pivoting (Π the
// row interchanges, P the block's order, the identity from NewLU) of a
// matrix with lower and upper half-bandwidths kl and ku. Row interchanges
// widen U to kl+ku; L keeps kl multipliers per column, stored where they
// were computed (interchanges are not applied to earlier columns of L, so
// the solve interleaves them with the elimination, as LAPACK's band LU
// does).
type LU struct {
	n, kl, kw int
	ipiv      []int32   // step k swapped rows k and ipiv[k]
	diag      []float64 // u_ii
	upper     []float64 // row i: u_ij for j in (i, min(n-1,i+kw)], rows concatenated
	lcols     []float64 // column k: multipliers of rows (k, min(n-1,k+kl)], columns concatenated
	sign      int
	o         order // the factor is of P A Pᵀ
}

// NewLU factorizes a general square matrix with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: LU of non-square %dx%d", a.Rows, a.Cols)
	}
	return newLU(a.Rows, newBanded(a.Rows, denseRows(a), nil))
}

func newLU(n int, b banded) (*LU, error) {
	kl, ku := b.kl, b.ku
	kw := min(kl+ku, n-1)
	// Working rows: row i holds columns [i-kl, i+kw], which covers its
	// fill in any position an interchange can move it to; once that is
	// wider than the matrix, plain row-major n×n is smaller.
	width, slant := kl+kw+1, 1
	if width >= n {
		width, slant = n, 0
	}
	base := func(i int) int { // where column 0 of row i would sit in w
		return i*width + slant*(kl-i)
	}
	w := make([]float64, n*width)
	entries(n, b.rows, func(i, j int, v float64) { w[base(i)+j] = v })
	f := &LU{
		n: n, kl: kl, kw: kw, sign: 1, o: b.o,
		ipiv:  make([]int32, n),
		diag:  make([]float64, n),
		upper: make([]float64, bandOff(n, kw)),
		lcols: make([]float64, bandOff(n, kl)),
	}
	offL, offU := 0, 0
	for k := 0; k < n; k++ {
		iEnd := min(n, k+kl+1)
		jEnd := min(n, k+kw+1)
		p, maxAbs := k, math.Abs(w[base(k)+k])
		for i := k + 1; i < iEnd; i++ {
			if a := math.Abs(w[base(i)+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		f.ipiv[k] = int32(p)
		rk := w[base(k)+k : base(k)+jEnd]
		if p != k {
			rp := w[base(p)+k : base(p)+jEnd]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.sign = -f.sign
		}
		d := rk[0]
		f.diag[k] = d
		offU += copy(f.upper[offU:], rk[1:])
		for i := k + 1; i < iEnd; i++ {
			ri := w[base(i)+k : base(i)+jEnd]
			m := ri[0] / d
			f.lcols[offL] = m
			offL++
			for j := 1; j < len(ri); j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Bytes returns the memory the factor holds.
func (f *LU) Bytes() int64 {
	return 8*int64(len(f.diag)+len(f.upper)+len(f.lcols)) + 4*int64(len(f.ipiv)+len(f.o))
}

// luBytes is the size of an LU factor of half-bandwidths kl and ku, its
// order aside.
func luBytes(n, kl, ku int) int64 {
	return 8*int64(n+bandOff(n, min(kl+ku, n-1))+bandOff(n, kl)) + 4*int64(n)
}

// Solve solves A*x = b; x is returned in a new slice, b is untouched.
func (f *LU) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	_ = f.SolveInPlace(x) // cannot fail
	return x
}

// SolveInPlace implements BlockSolver. The factor is shared between
// concurrent solves, so both permutations are applied to rhs itself, the
// order along its cycles and the interchanges as the recorded swap
// sequence: nothing is allocated and nothing is written to the factor.
func (f *LU) SolveInPlace(rhs []float64) error {
	if len(rhs) != f.n {
		panic(fmt.Sprintf("sparse: LU.Solve dim %d want %d", len(rhs), f.n))
	}
	f.solve(rhs)
	return nil
}

// solve eliminates column by column on P b (each entry still accumulates
// its products in ascending-k order), back-substitutes through backSubst
// and returns Pᵀ of the result.
//
//due:hotpath
func (f *LU) solve(b []float64) {
	n, kl, kw := f.n, f.kl, f.kw
	f.o.gather(b)
	off := 0
	for k := 0; k < n; k++ { // L*y = Π*(P*b)
		if p := int(f.ipiv[k]); p != k {
			b[k], b[p] = b[p], b[k]
		}
		w := min(n-1-k, kl)
		subScaled(b[k+1:], f.lcols[off:off+w], b[k])
		off += w
	}
	backSubst(n, kw, f.diag, f.upper, b) // U*x = y
	f.o.scatter(b)
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for _, u := range f.diag {
		d *= u
	}
	return d
}
