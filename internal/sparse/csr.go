package sparse

import (
	"fmt"
	"math"
	"slices"
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
//
// An operator whose DIA shadow is selected and which stores no +0.0 is
// held as its diagonals alone: BuildShadows drops RowPtr, Cols and Vals
// (they stay nil), and every row reader goes through Row, which gathers
// the row back from the diagonals (DESIGN §5).
type CSR struct {
	N      int // number of rows
	M      int // number of columns
	RowPtr []int32
	Cols   []int32
	Vals   []float64

	// nnz counts the stored entries of an operator held as its
	// diagonals (diaOnly); NNZ reads it there.
	nnz int

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
//
// When DIA is selected and no stored entry is +0.0, the arrays go: a
// slot of the diagonals whose bits are zero then means "not stored", so
// Row rebuilds the CSR pattern exactly (a stored -0.0 keeps its sign
// bit, and a stored +0.0 keeps the arrays). On an operator already held
// as its diagonals it does nothing.
func (a *CSR) BuildShadows() {
	if a.diaOnly() {
		return
	}
	a.buildDIA()
	a.buildSELL()
	if a.diaOffs != nil && !slices.ContainsFunc(a.Vals, isPositiveZero) {
		a.nnz = len(a.Vals)
		a.RowPtr, a.Cols, a.Vals = nil, nil, nil
	}
}

func isPositiveZero(v float64) bool { return math.Float64bits(v) == 0 }

// diaOnly reports whether the operator is held as its diagonals alone.
func (a *CSR) diaOnly() bool { return a.RowPtr == nil && a.diaOffs != nil }

// RowBuf is the caller-owned buffer Row gathers a row of an operator held
// as its diagonals into: one slot per diagonal. Declared on the caller's
// stack, it keeps a row walk free of allocation.
type RowBuf struct {
	cols [maxDiaOffsets]int32
	vals [maxDiaOffsets]float64
}

// Row returns the stored entries of row i in ascending column order: the
// row's spans of Cols and Vals, or, for an operator held as its
// diagonals, the row gathered into buf — ascending offsets are ascending
// columns, and a slot whose bits are zero is not stored. The slices are
// read-only and valid until buf is next used. Every reader of a row's
// entries goes through Row, so each walk has one body for both forms and
// visits the same entries in the same order.
//
//due:hotpath
func (a *CSR) Row(i int, buf *RowBuf) (cols []int32, vals []float64) {
	if a.RowPtr == nil {
		return a.diaRow(i, buf)
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Cols[lo:hi], a.Vals[lo:hi]
}

// diaRow is Row for an operator held as its diagonals.
//
//due:hotpath
func (a *CSR) diaRow(i int, buf *RowBuf) ([]int32, []float64) {
	// Held in locals, a's fields are not reloaded after every store into
	// buf (≈ 25 % of a 27-diagonal gather).
	offs := a.diaOffs
	diags := a.diaVals[:len(offs)]
	cols, vals := buf.cols[:len(offs)], buf.vals[:len(offs)]
	k := 0
	for d, o := range offs {
		if v := diags[d][i]; !isPositiveZero(v) {
			cols[k], vals[k] = int32(i+o), v
			k++
		}
	}
	return cols[:k], vals[:k]
}

// rowArrays returns fresh CSR arrays holding the rows Row reads: a copy
// of the arrays, or the arrays of an operator held as its diagonals
// rebuilt from them.
func (a *CSR) rowArrays() (rowPtr, cols []int32, vals []float64) {
	rowPtr = make([]int32, a.N+1)
	cols, vals = make([]int32, 0, a.NNZ()), make([]float64, 0, a.NNZ())
	var buf RowBuf
	for i := 0; i < a.N; i++ {
		c, v := a.Row(i, &buf)
		cols, vals = append(cols, c...), append(vals, v...)
		rowPtr[i+1] = int32(len(cols))
	}
	return rowPtr, cols, vals
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
		m := mergeRow(cols[lo:hi], vals[lo:hi])
		copy(cols[w:], cols[lo:lo+m])
		copy(vals[w:], vals[lo:lo+m])
		w += m
		lo = hi
	}
	a.RowPtr[n] = w
	a.Cols, a.Vals = cols[:w], vals[:w]
	a.BuildShadows()
	return a
}

// RowBuilder assembles a CSR matrix row by row, for generators that
// produce their entries in row order: Add appends an entry to the
// current row and EndRow closes it. A closed row is sorted by column,
// stably, and its duplicates summed in input order — NewCSRFromTriplets'
// rule — so a generator gets the same arrays bit for bit without
// holding a triplet per entry.
type RowBuilder struct {
	n, m   int
	rowPtr []int32
	cols   []int32
	vals   []float64
}

// NewRowBuilder starts an n×m matrix with room for nnz entries (the
// arrays grow past it, so an exact count allocates them once).
func NewRowBuilder(n, m, nnz int) *RowBuilder {
	if err := CheckSize(n, m, nnz); err != nil {
		panic(err.Error())
	}
	return &RowBuilder{n: n, m: m, rowPtr: make([]int32, 1, n+1),
		cols: make([]int32, 0, nnz), vals: make([]float64, 0, nnz)}
}

// Add appends the entry (j, v) to the current row. A column out of range
// panics.
func (b *RowBuilder) Add(j int, v float64) {
	if j < 0 || j >= b.m {
		panic(fmt.Sprintf("sparse: column %d out of range for %dx%d matrix", j, b.n, b.m))
	}
	b.cols, b.vals = append(b.cols, int32(j)), append(b.vals, v)
}

// EndRow closes the current row.
func (b *RowBuilder) EndRow() {
	if len(b.rowPtr) > b.n {
		panic(fmt.Sprintf("sparse: row %d past the end of a %dx%d matrix", len(b.rowPtr)-1, b.n, b.m))
	}
	if err := CheckSize(b.n, b.m, len(b.cols)); err != nil {
		panic(err.Error())
	}
	start := b.rowPtr[len(b.rowPtr)-1]
	w := start + mergeRow(b.cols[start:], b.vals[start:])
	b.cols, b.vals = b.cols[:w], b.vals[:w]
	b.rowPtr = append(b.rowPtr, w)
}

// Build returns the matrix, its shadows built, once all n rows are
// closed. The builder is spent.
func (b *RowBuilder) Build() *CSR {
	if len(b.rowPtr) != b.n+1 {
		panic(fmt.Sprintf("sparse: %d of %d rows built", len(b.rowPtr)-1, b.n))
	}
	a := &CSR{N: b.n, M: b.m, RowPtr: b.rowPtr, Cols: b.cols, Vals: b.vals}
	*b = RowBuilder{}
	a.BuildShadows()
	return a
}

// mergeRow sorts one row's entries by column, stably, sums each run of
// equal columns left to right into its first entry, and returns the
// merged length m: the row is then cols[:m], vals[:m].
func mergeRow(cols []int32, vals []float64) int32 {
	sortRow(cols, vals)
	var w int32
	for k, c := range cols {
		if w > 0 && cols[w-1] == c {
			vals[w-1] += vals[k]
			continue
		}
		cols[w], vals[w] = c, vals[k]
		w++
	}
	return w
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
func (a *CSR) NNZ() int {
	if a.diaOnly() {
		return a.nnz
	}
	return len(a.Vals)
}

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
// The rows of an operator held as its diagonals hold them by
// construction.
func (a *CSR) Validate() error {
	arrays := !a.diaOnly()
	if arrays {
		if len(a.RowPtr) != a.N+1 {
			return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
		}
		if a.RowPtr[0] != 0 {
			return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
		}
		if int(a.RowPtr[a.N]) != len(a.Vals) || len(a.Cols) != len(a.Vals) {
			return fmt.Errorf("sparse: RowPtr[N]=%d Cols=%d Vals=%d inconsistent", a.RowPtr[a.N], len(a.Cols), len(a.Vals))
		}
	}
	var buf RowBuf
	for i := 0; i < a.N; i++ {
		// The second test keeps Row inside Cols when a middle row
		// overshoots (RowPtr [0,5,2] over two entries).
		if arrays && (a.RowPtr[i] > a.RowPtr[i+1] || int(a.RowPtr[i+1]) > len(a.Cols)) {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		cols, _ := a.Row(i, &buf)
		for _, c32 := range cols {
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
	var buf RowBuf
	cols, vals := a.Row(i, &buf)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[k]
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
	var buf RowBuf
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i, &buf)
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
	var buf RowBuf
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i, &buf)
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
// recoveries (§2.4). The ranges need not be sorted; they are sorted and
// merged in place (mergeRanges), which keeps their union. Output is
// compact: y needs only hi-lo elements.
//
// The ranges are sorted and merged once per call; columns within a row are
// strictly increasing, so each row advances a single cursor through the
// merged ranges instead of scanning every exclude per nonzero — a
// multi-DUE recovery over k pages costs O(nnz + k log k), not O(nnz·k).
func (a *CSR) MulVecRangeExcludingBlocks(x, y []float64, lo, hi int, exclude [][2]int) {
	merged := mergeRanges(exclude)
	var buf RowBuf
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i, &buf)
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

// mergeRanges sorts the half-open ranges by start IN PLACE and returns
// a prefix of the argument holding them with overlapping or touching
// ranges coalesced and empty ones dropped; the elements past the prefix
// keep ranges inside that union, so a second call on the same slice
// returns the same ranges. Callers pass a slice they built for the call.
// An insertion sort: the lists are a few pages long, and the recovery
// walk that calls it must not allocate.
func mergeRanges(ranges [][2]int) [][2]int {
	for i := 1; i < len(ranges); i++ {
		r, j := ranges[i], i
		for ; j > 0 && ranges[j-1][0] > r[0]; j-- {
			ranges[j] = ranges[j-1]
		}
		ranges[j] = r
	}
	out := ranges[:0]
	for _, r := range ranges {
		if r[0] >= r[1] {
			continue
		}
		if n := len(out); n > 0 && r[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], r[1])
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
	var buf RowBuf
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i, &buf)
		for p, c32 := range cols {
			if c := int(c32); c >= lo && c < hi {
				d.Set(i-lo, c-lo, vals[p])
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
	var buf RowBuf
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i, &buf)
		for k, c := range cols {
			v, w := vals[k], a.At(int(c), i)
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
	t.Cols = make([]int32, a.NNZ())
	t.Vals = make([]float64, a.NNZ())
	var buf RowBuf
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i, &buf)
		for _, c := range cols {
			t.RowPtr[c+1]++
		}
	}
	for i := 0; i < t.N; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := slices.Clone(t.RowPtr[:t.N])
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i, &buf)
		for k, c := range cols {
			pos := next[c]
			t.Cols[pos] = int32(i)
			t.Vals[pos] = vals[k]
			next[c]++
		}
	}
	t.BuildShadows()
	return t
}

// Clone returns a deep copy of the matrix: its rows in fresh arrays
// (rebuilt from the diagonals of an operator held as them), shadows
// built anew.
func (a *CSR) Clone() *CSR {
	b := &CSR{N: a.N, M: a.M}
	b.RowPtr, b.Cols, b.Vals = a.rowArrays()
	b.BuildShadows()
	return b
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int {
	var buf RowBuf
	cols, _ := a.Row(i, &buf)
	return len(cols)
}

// OffBlockRowAbsSum returns sum_{j outside [lo,hi)} |A[i][j]| for row i.
// It is used to compute the contraction constant of Theorem 1.
func (a *CSR) OffBlockRowAbsSum(i, lo, hi int) float64 {
	var s float64
	var buf RowBuf
	cols, vals := a.Row(i, &buf)
	for k, c := range cols {
		if int(c) >= lo && int(c) < hi {
			continue
		}
		s += math.Abs(vals[k])
	}
	return s
}
