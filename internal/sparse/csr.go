package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format. Rows(i) spans
// Cols[RowPtr[i]:RowPtr[i+1]] with values Vals[RowPtr[i]:RowPtr[i+1]],
// column indices strictly increasing within a row.
//
// The index arrays are int32, the width the kernels read: a matrix with
// more than MaxIndex rows, columns or nonzeros is refused (CheckSize).
// The matrix is treated as immutable after assembly: code that edits
// Cols or Vals in place must call BuildShadows again (the DIA and SELL
// shadows copy values, not just indices).
type CSR struct {
	N      int // number of rows
	M      int // number of columns
	RowPtr []int32
	Cols   []int32
	Vals   []float64

	// diaOffs/diaVals are the diagonal (DIA) kernel shadow for stencil
	// and banded matrices — see dia.go. Nil when the matrix does not
	// qualify; the kernels then use SELL or the CSR arrays. The two
	// diagonals of a mirrored pair are views of one backing array, so
	// nothing may write into diaVals after buildDIA: DisableShadow only
	// drops it, and the kernels only read it.
	diaOffs []int
	diaVals [][]float64

	// SELL-C-σ kernel shadow for short-row matrices the DIA shadow
	// rejects — see sellcs.go. sellPtr indexes chunks into the packed
	// column-major sellVals/sellCols streams; sellWin maps σ windows to
	// chunk ranges so row-range queries stay cheap; sellRows/sellLens
	// give each chunk lane its backing row and length; sellMin is the
	// chunk's unguarded dense depth. Nil when the matrix does not
	// qualify (or DIA won).
	sellPtr  []int32
	sellWin  []int32
	sellRows []int32
	sellLens []int32
	sellMin  []int32
	sellVals []float64
	sellCols []int32
}

// MaxIndex is the largest row count, column count or nonzero count a CSR
// holds: its index arrays are int32.
const MaxIndex = 1<<31 - 1

// ErrTooLarge refuses a matrix whose rows, columns or nonzeros exceed
// MaxIndex.
var ErrTooLarge = fmt.Errorf("sparse: matrix exceeds the int32 index limit (%d rows, columns or nonzeros)", MaxIndex)

// CheckSize returns ErrTooLarge, with the offending sizes, when an n×m
// matrix of nnz stored entries does not fit the int32 index arrays.
func CheckSize(n, m, nnz int) error {
	if n > MaxIndex || m > MaxIndex || nnz > MaxIndex {
		return fmt.Errorf("%w: %dx%d with %d nonzeros", ErrTooLarge, n, m, nnz)
	}
	return nil
}

// BuildShadows (re)builds the kernel shadows the hot SpMV kernels read:
// the diagonal shadow of dia.go for stencil/banded matrices, else the
// SELL-C-σ shadow of sellcs.go for short-row matrices. A matrix with
// neither runs the CSR kernels on its own arrays. Constructors call it;
// hand-assembled matrices that pass Validate may call it to opt in.
func (a *CSR) BuildShadows() {
	a.buildDIA()
	a.buildSELL()
}

// Triplet is a single (row, col, value) entry used to assemble matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSRFromTriplets assembles an n×m CSR matrix from coordinate entries.
// Duplicate (row, col) entries are summed left to right in input order.
// Entries out of range panic, and so does a size past MaxIndex (CheckSize
// counts the entries before duplicates merge). entries is not modified.
//
// A counting sort by row: one pass sizes the rows, one scatters (col,
// val) into the final arrays, then each row is sorted by column, stably,
// and its duplicates merged in place.
func NewCSRFromTriplets(n, m int, entries []Triplet) *CSR {
	if err := CheckSize(n, m, len(entries)); err != nil {
		panic(err.Error())
	}
	a := &CSR{N: n, M: m, RowPtr: make([]int32, n+1)}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= m {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range for %dx%d matrix", t.Row, t.Col, n, m))
		}
		a.RowPtr[t.Row+1]++
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	// RowPtr[i] is row i's scatter cursor: it ends at the row's end.
	cols, vals := make([]int32, len(entries)), make([]float64, len(entries))
	for _, t := range entries {
		k := a.RowPtr[t.Row]
		cols[k], vals[k] = int32(t.Col), t.Val
		a.RowPtr[t.Row]++
	}
	var lo, w int32
	for i := 0; i < n; i++ {
		hi := a.RowPtr[i]
		a.RowPtr[i] = w
		sortRow(cols[lo:hi], vals[lo:hi])
		for k := lo; k < hi; k++ {
			if w > a.RowPtr[i] && cols[w-1] == cols[k] {
				vals[w-1] += vals[k]
				continue
			}
			cols[w], vals[w] = cols[k], vals[k]
			w++
		}
		lo = hi
	}
	a.RowPtr[n] = w
	a.Cols, a.Vals = cols[:w], vals[:w]
	a.BuildShadows()
	return a
}

// sortRow sorts one row's entries by column, stably: by insertion, or
// through a merge sort of a copy when the row is long enough to make
// insertion quadratic.
func sortRow(cols []int32, vals []float64) {
	if len(cols) > 128 {
		row := make([]Triplet, len(cols))
		for k := range row {
			row[k] = Triplet{Col: int(cols[k]), Val: vals[k]}
		}
		slices.SortStableFunc(row, func(p, q Triplet) int { return p.Col - q.Col })
		for k, t := range row {
			cols[k], vals[k] = int32(t.Col), t.Val
		}
		return
	}
	for k := 1; k < len(cols); k++ {
		c, v, j := cols[k], vals[k], k
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Vals) }

// Bytes is what the operator holds: Vals, Cols and RowPtr, the DIA
// shadow's offsets and each distinct diagonal backing once (the two views
// of a mirrored pair share one), and the SELL shadow's arrays.
func (a *CSR) Bytes() int64 {
	b := 8*len(a.Vals) + 4*len(a.Cols) + 4*len(a.RowPtr) + 8*len(a.diaOffs)
	for _, n := range diaBackings(a.diaVals) {
		b += 8 * n
	}
	b += 4 * (len(a.sellPtr) + len(a.sellWin) + len(a.sellRows) + len(a.sellLens) + len(a.sellMin) + len(a.sellCols))
	return int64(b + 8*len(a.sellVals))
}

// Validate checks structural invariants: monotone RowPtr, sorted in-row
// columns, indices in range. It returns a descriptive error on violation.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if int(a.RowPtr[a.N]) != len(a.Vals) || len(a.Cols) != len(a.Vals) {
		return fmt.Errorf("sparse: RowPtr[N]=%d Cols=%d Vals=%d inconsistent", a.RowPtr[a.N], len(a.Cols), len(a.Vals))
	}
	for i := 0; i < a.N; i++ {
		// The second test keeps the scan below inside Cols when a middle
		// row overshoots (RowPtr [0,5,2] over two entries).
		if a.RowPtr[i] > a.RowPtr[i+1] || int(a.RowPtr[i+1]) > len(a.Cols) {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for _, c32 := range a.Cols[a.RowPtr[i]:a.RowPtr[i+1]] {
			c := int(c32)
			if c < 0 || c >= a.M {
				return fmt.Errorf("sparse: row %d column %d out of range", i, c)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// At returns the value at (i, j), zero when not stored.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	if k, ok := slices.BinarySearch(a.Cols[lo:hi], int32(j)); ok {
		return a.Vals[int(lo)+k]
	}
	return 0
}

// MulVec computes y = A*x.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.M || len(y) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dims x=%d y=%d for %dx%d", len(x), len(y), a.N, a.M))
	}
	a.MulVecRange(x, y, 0, a.N)
}

// MulVecRange computes y[lo:hi] = (A*x)[lo:hi]: the row-block SpMV used by
// strip-mined tasks. It reads the whole x (lattice-like dependency in the
// paper's task graph) but writes only rows [lo, hi). The row span is
// sliced once per row so the inner loop runs without re-checking the
// RowPtr-derived bounds on every nonzero.
//
//due:hotpath
func (a *CSR) MulVecRange(x, y []float64, lo, hi int) {
	if a.diaOffs != nil {
		a.mulRangeDIA(x, y, nil, lo, hi)
		return
	}
	if a.sellPtr != nil {
		a.mulVecRangeSELL(x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		y[i] = a.rowSum(x, i)
	}
}

// rowSum returns (A*x)[i] from the CSR arrays: the row's products in
// ascending column order from +0.0.
//
//due:hotpath
func (a *CSR) rowSum(x []float64, i int) (s float64) {
	row, end := a.RowPtr[i], a.RowPtr[i+1]
	vals := a.Vals[row:end]
	for k, c := range a.Cols[row:end] {
		s += vals[k] * x[c]
	}
	return s
}

// MulVecRangeExcludingCols computes, for rows in [lo, hi),
// y[i-lo] = sum over j outside [exLo, exHi) of A[i][j] * x[j].
// This is the off-block part of a block relation: the recovery right-hand
// side q_i - sum_{j != i} A_ij p_j is built with exclusion of the failed
// block's own columns. Output is compact: y needs only hi-lo elements.
//
//due:hotpath
func (a *CSR) MulVecRangeExcludingCols(x, y []float64, lo, hi, exLo, exHi int) {
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var s float64
		for k, c := range cols {
			if int(c) >= exLo && int(c) < exHi {
				continue
			}
			s += vals[k] * x[c]
		}
		y[i-lo] = s
	}
}

// MulVecRangeWithinCols is the complement of MulVecRangeExcludingCols:
// for rows in [lo, hi), y[i-lo] = sum over j inside [inLo, inHi) of
// A[i][j] * x[j]. With both ranges one page it is the diagonal-block
// product u_p = A_pp v_p, summed in column order like the dense block's
// rows. Output is compact: y needs only hi-lo elements.
//
//due:hotpath
func (a *CSR) MulVecRangeWithinCols(x, y []float64, lo, hi, inLo, inHi int) {
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var s float64
		for k, c := range cols {
			if int(c) >= inLo && int(c) < inHi {
				s += vals[k] * x[c]
			}
		}
		y[i-lo] = s
	}
}

// MulVecRangeExcludingBlocks computes, for rows in [lo, hi),
// y[i-lo] = sum of A[i][j]*x[j] over columns j not inside any of the
// excluded half-open column ranges. Used for combined multi-error
// recoveries (§2.4). The ranges need not be sorted. Output is compact:
// y needs only hi-lo elements.
//
// The ranges are sorted and merged once per call; columns within a row are
// strictly increasing, so each row advances a single cursor through the
// merged ranges instead of scanning every exclude per nonzero — a
// multi-DUE recovery over k pages costs O(nnz + k log k), not O(nnz·k).
func (a *CSR) MulVecRangeExcludingBlocks(x, y []float64, lo, hi int, exclude [][2]int) {
	merged := mergeRanges(exclude)
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var s float64
		ex := 0
		for k, c := range cols {
			for ex < len(merged) && int(c) >= merged[ex][1] {
				ex++
			}
			if ex < len(merged) && int(c) >= merged[ex][0] {
				continue
			}
			s += vals[k] * x[c]
		}
		y[i-lo] = s
	}
}

// mergeRanges returns the half-open ranges sorted by start with
// overlapping or touching ranges coalesced. Empty ranges are dropped. The
// input is not modified.
func mergeRanges(ranges [][2]int) [][2]int {
	switch len(ranges) {
	case 0:
		return nil
	case 1:
		if ranges[0][0] >= ranges[0][1] {
			return nil
		}
		return ranges
	}
	sorted := make([][2]int, 0, len(ranges))
	for _, r := range ranges {
		if r[0] < r[1] {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	out := sorted[:0]
	for _, r := range sorted {
		if n := len(out); n > 0 && r[0] <= out[n-1][1] {
			if r[1] > out[n-1][1] {
				out[n-1][1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// DiagBlock extracts the dense diagonal block A[lo:hi, lo:hi] in row-major
// order. The returned Dense is (hi-lo)×(hi-lo). The solvers never
// materialise a block (the cache factorizes from the CSR rows); this is
// for measurement and for test oracles.
func (a *CSR) DiagBlock(lo, hi int) *Dense {
	k := hi - lo
	d := NewDense(k, k)
	for i := lo; i < hi; i++ {
		end := a.RowPtr[i+1]
		for p := a.RowPtr[i]; p < end; p++ {
			c := int(a.Cols[p])
			if c >= lo && c < hi {
				d.Set(i-lo, c-lo, a.Vals[p])
			}
		}
	}
	return d
}

// Diag returns a copy of the main diagonal.
func (a *CSR) Diag() []float64 {
	n := a.N
	if a.M < n {
		n = a.M
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the matrix equals its transpose within tol
// (relative to the larger magnitude of the compared pair).
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.N != a.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Cols[k])
			v, w := a.Vals[k], a.At(j, i)
			scale := math.Max(math.Abs(v), math.Abs(w))
			if scale == 0 {
				continue
			}
			if math.Abs(v-w) > tol*math.Max(scale, 1) {
				return false
			}
		}
	}
	return true
}

// Transpose returns a new CSR holding Aᵀ.
func (a *CSR) Transpose() *CSR {
	t := &CSR{N: a.M, M: a.N, RowPtr: make([]int32, a.M+1)}
	t.Cols = make([]int32, len(a.Cols))
	t.Vals = make([]float64, len(a.Vals))
	for _, c := range a.Cols {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.N; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := slices.Clone(t.RowPtr[:t.N])
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.Cols[k]
			pos := next[c]
			t.Cols[pos] = int32(i)
			t.Vals[pos] = a.Vals[k]
			next[c]++
		}
	}
	t.BuildShadows()
	return t
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{N: a.N, M: a.M}
	b.RowPtr = slices.Clone(a.RowPtr)
	b.Cols = slices.Clone(a.Cols)
	b.Vals = slices.Clone(a.Vals)
	b.BuildShadows()
	return b
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return int(a.RowPtr[i+1] - a.RowPtr[i]) }

// OffBlockRowAbsSum returns sum_{j outside [lo,hi)} |A[i][j]| for row i.
// It is used to compute the contraction constant of Theorem 1.
func (a *CSR) OffBlockRowAbsSum(i, lo, hi int) float64 {
	var s float64
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		c := int(a.Cols[k])
		if c >= lo && c < hi {
			continue
		}
		s += math.Abs(a.Vals[k])
	}
	return s
}
