package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrSingular is returned when a factorization meets an (effectively)
// singular pivot and the direct solve cannot proceed.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// Dense is a row-major dense matrix. It is used for the small
// Hessenberg systems of GMRES, for the QR fallback on a singular diagonal
// block, and as the test oracle of the banded block factors (band.go).
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Add accumulates v into element (i, j).
func (d *Dense) Add(i, j int, v float64) { d.Data[i*d.Cols+j] += v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// MulVec computes y = D*x for the dense matrix.
func (d *Dense) MulVec(x, y []float64) {
	if len(x) != d.Cols || len(y) != d.Rows {
		panic(fmt.Sprintf("sparse: Dense.MulVec dims x=%d y=%d for %dx%d", len(x), len(y), d.Rows, d.Cols))
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// ----------------------------------------------------------------------
// Householder QR: least-squares solves for (possibly) singular diagonal
// blocks, as Agullo et al. propose for recover-restart interpolation and as
// the paper adopts for non-SPD blocks (§2.3).
// ----------------------------------------------------------------------

// QR holds a Householder QR factorization of an m×n matrix with m >= n.
type QR struct {
	m, n int
	qr   []float64 // packed factors: R in upper triangle, v's below
	tau  []float64
}

// NewQR factorizes a (m >= n required).
func NewQR(a *Dense) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("sparse: QR needs rows >= cols, got %dx%d", m, n)
	}
	qr := make([]float64, m*n)
	copy(qr, a.Data)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr[i*n+k])
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr[k*n+k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr[i*n+k] /= norm
		}
		qr[k*n+k] += 1
		// Apply transform to remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr[i*n+k] * qr[i*n+j]
			}
			s = -s / qr[k*n+k]
			for i := k; i < m; i++ {
				qr[i*n+j] += s * qr[i*n+k]
			}
		}
		// Layout: the Householder vector v (with v1 on the diagonal) stays
		// in column k at and below the diagonal; R's diagonal entry -norm
		// is stashed in tau[k] (the strict upper triangle already holds R).
		tau[k] = -norm
	}
	return &QR{m: m, n: n, qr: qr, tau: tau}, nil
}

// SolveLeastSquares returns argmin_x ||A x - b||₂. When a diagonal entry of
// R is (near) zero the corresponding component is set to zero (minimum-norm
// flavoured fallback) and no error is raised unless the whole system is
// degenerate.
func (q *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	m, n := q.m, q.n
	if len(b) != m {
		return nil, fmt.Errorf("sparse: QR.Solve dim %d want %d", len(b), m)
	}
	y := append([]float64(nil), b...)
	// Apply Qᵀ to b. For each Householder reflector k with v stored in
	// column k (v1 on the diagonal):
	for k := 0; k < n; k++ {
		v1 := q.qr[k*n+k]
		if v1 == 0 {
			continue
		}
		var s float64
		s += v1 * y[k]
		for i := k + 1; i < m; i++ {
			s += q.qr[i*n+k] * y[i]
		}
		s = -s / v1
		y[k] += s * v1
		for i := k + 1; i < m; i++ {
			y[i] += s * q.qr[i*n+k]
		}
	}
	// Back-substitute R x = y[:n] in place (row i reads y[i] and the x[j],
	// j > i, already written over y[j]). R's strict upper part lives above
	// the diagonal of qr; the diagonal is in tau.
	x := y[:n]
	allZero := true
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.qr[i*n+j] * x[j]
		}
		d := q.tau[i]
		if math.Abs(d) < 1e-300 {
			x[i] = 0
			continue
		}
		allZero = false
		x[i] = s / d
	}
	if allZero && n > 0 {
		return nil, ErrSingular
	}
	return x, nil
}

// SolveInPlace implements BlockSolver for a square factor: rhs is
// overwritten with the least-squares solution, or left untouched on error.
func (q *QR) SolveInPlace(rhs []float64) error {
	x, err := q.SolveLeastSquares(rhs)
	if err != nil {
		return err
	}
	copy(rhs, x)
	return nil
}

// Bytes returns the memory the factor holds.
func (q *QR) Bytes() int64 { return 8 * int64(len(q.qr)+len(q.tau)) }

// BlockSolver abstracts a factorized diagonal block used by recoveries:
// *Cholesky for SPD blocks, *LU otherwise, *QR least-squares as the
// fallback. A solver is immutable once built, so one factor serves
// concurrent solves.
type BlockSolver interface {
	// SolveInPlace solves Block*x = rhs, overwriting rhs with x.
	SolveInPlace(rhs []float64) error
	// Bytes returns the memory the factor holds.
	Bytes() int64
}

// factorizations counts every diagonal-block factorization performed by
// the process — the setup cost the operator-context cache exists to
// amortise. Tests pin "zero factorizations after warmup" against it.
var factorizations atomic.Int64

// FactorizationCount returns the number of diagonal-block factorizations
// performed by this process so far.
func FactorizationCount() int64 { return factorizations.Load() }

// FactorizeBlock builds a BlockSolver for a dense square block, ordering
// it and factorizing inside its bandwidth (see factorBlock). The order,
// the symmetry check, the two band measurements and the fill read every
// row, some several times, so the block's nonzeros are gathered once, in
// CSR form: rescanned at full width, the first 512-row block of the
// 4096-row thermal2 analogue factored in 2.2–2.5 ms on a 2-core Xeon,
// slower than its natural-order factor without the renumbering (1.8–2.1
// ms); gathered, in 0.5–0.6 ms.
func FactorizeBlock(block *Dense, spd bool) (BlockSolver, error) {
	if block.Rows != block.Cols {
		return nil, fmt.Errorf("sparse: FactorizeBlock of non-square %dx%d", block.Rows, block.Cols)
	}
	n := block.Rows
	c := &CSR{N: n, M: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		for j, v := range block.Data[i*n : (i+1)*n] {
			if v != 0 {
				c.Cols = append(c.Cols, int32(j))
				c.Vals = append(c.Vals, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Cols))
	}
	return factorBlock(n, c.spanRows([]span{{lo: 0, hi: n}}), spd)
}

// factorBlock builds the BlockSolver of an n×n block read through rows,
// trying Cholesky when spd is claimed, then LU, then QR least squares,
// mirroring the paper's §2.3 strategy. Cholesky and LU factor the block
// renumbered when that makes their factor smaller (renumbered, smaller),
// Cholesky only a symmetric block. The result is a pure function of the
// block's entries.
func factorBlock(n int, rows blockRows, spd bool) (BlockSolver, error) {
	factorizations.Add(1)
	natural := newBanded(n, rows, nil)
	prows, o := renumbered(n, rows)
	reordered := newBanded(n, prows, o)
	if spd {
		b := natural
		if symmetric(n, rows) {
			b = smaller(natural, reordered, func(kl, _ int) int64 { return cholBytes(n, kl) })
		}
		if c, err := newCholesky(n, b); err == nil {
			return c, nil
		}
	}
	if f, err := newLU(n, smaller(natural, reordered, func(kl, ku int) int64 { return luBytes(n, kl, ku) })); err == nil {
		return f, nil
	}
	// Singular to working precision: the one case that needs the block dense.
	d := NewDense(n, n)
	entries(n, rows, func(i, j int, v float64) { d.Set(i, j, v) })
	return NewQR(d)
}
