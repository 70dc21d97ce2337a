// Package precond provides the block-Jacobi preconditioner used by the
// paper's preconditioned CG (§5.1): 512×512 diagonal blocks factorized
// once with (banded) Cholesky, sized to coincide with the memory-page
// fault granularity so the factorizations double as recovery solvers.
//
// The key property for cheap recovery (§3.2) is partial application: as a
// block-diagonal operator, solving M u = v on the set of blocks that
// supersedes lost data recovers exactly the lost portion of u.
package precond

import (
	"fmt"

	"repro/internal/sparse"
)

// Preconditioner solves M u = v, optionally on a subset of blocks.
type Preconditioner interface {
	// Apply solves M u = v for the whole vector.
	Apply(v, u []float64)
	// ApplyBlock solves the block-diagonal sub-problem for block i only,
	// reading v and writing u on that block's element range.
	ApplyBlock(i int, v, u []float64) error
	// Layout returns the block partition of the operator.
	Layout() sparse.BlockLayout
}

// Identity is the no-preconditioner case: u = v.
type Identity struct {
	layout sparse.BlockLayout
}

// NewIdentity builds an identity preconditioner over n elements with the
// given block size (for layout queries only).
func NewIdentity(n, blockSize int) *Identity {
	return &Identity{layout: sparse.BlockLayout{N: n, BlockSize: blockSize}}
}

// Apply copies v into u.
func (p *Identity) Apply(v, u []float64) { copy(u, v) }

// ApplyBlock copies block i of v into u.
func (p *Identity) ApplyBlock(i int, v, u []float64) error {
	lo, hi := p.layout.Range(i)
	copy(u[lo:hi], v[lo:hi])
	return nil
}

// Layout returns the block partition.
func (p *Identity) Layout() sparse.BlockLayout { return p.layout }

// BlockJacobi is the paper's preconditioner: M = blockdiag(A_00..A_kk),
// each block factorized once at setup.
type BlockJacobi struct {
	a       *sparse.CSR
	layout  sparse.BlockLayout
	solvers []sparse.BlockSolver
}

// New factorizes the diagonal blocks of a with the given block size
// (0 means the page size, 512). spd selects Cholesky factorization of the
// blocks; pass false for general (possibly non-symmetric) matrices, which
// factorizes with LU — the BiCGStab/GMRES setting.
func New(a *sparse.CSR, blockSize int, spd bool) (*BlockJacobi, error) {
	if blockSize <= 0 {
		blockSize = 512
	}
	return FromCache(sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: blockSize}, spd))
}

// NewBlockJacobi factorizes the diagonal blocks of the SPD matrix a with
// the given block size (0 means the page size, 512).
func NewBlockJacobi(a *sparse.CSR, blockSize int) (*BlockJacobi, error) {
	return New(a, blockSize, true)
}

// FromCache builds a block-Jacobi preconditioner over the cache's layout
// sharing its diagonal-block factors — the §5.1 observation that with
// block size equal to the page size, the preconditioner setup and the
// recovery solvers are the same factorizations. Blocks the cache has not
// factored yet are factored here, in parallel; it fails if any block
// cannot be factorized, since the preconditioner needs every one.
func FromCache(c *sparse.BlockSolverCache) (*BlockJacobi, error) {
	c.PrefactorizeLenient()
	bj := &BlockJacobi{a: c.A, layout: c.Layout, solvers: make([]sparse.BlockSolver, c.Layout.NumBlocks())}
	for i := range bj.solvers {
		s, err := c.Solver(i)
		if err != nil {
			return nil, fmt.Errorf("precond: %w", err)
		}
		bj.solvers[i] = s
	}
	return bj, nil
}

// Apply solves M u = v block by block.
func (p *BlockJacobi) Apply(v, u []float64) {
	for i := range p.solvers {
		if err := p.ApplyBlock(i, v, u); err != nil {
			// Factorized at setup; solve cannot fail for Cholesky/LU.
			panic(fmt.Sprintf("precond: block %d apply: %v", i, err))
		}
	}
}

// ApplyBlock solves block i: u_i = A_ii^{-1} v_i. This is the partial
// application that makes preconditioned-vector recovery cheap (§3.2).
func (p *BlockJacobi) ApplyBlock(i int, v, u []float64) error {
	lo, hi := p.layout.Range(i)
	buf := u[lo:hi]
	copy(buf, v[lo:hi])
	return p.solvers[i].SolveInPlace(buf)
}

// Layout returns the block partition.
func (p *BlockJacobi) Layout() sparse.BlockLayout { return p.layout }

// SolveBlockInPlace solves M_ii u = u on a raw page-sized buffer — the
// same partial application as ApplyBlock, for recovery code that works on
// detached page buffers rather than full-length vectors (the GMRES
// Hessenberg rebuild).
func (p *BlockJacobi) SolveBlockInPlace(i int, buf []float64) error {
	return p.solvers[i].SolveInPlace(buf)
}

// MulBlock computes u_i = M_ii v_i = A_ii v_i for block i — the forward
// product inverse to ApplyBlock, used to rebuild a lost unpreconditioned
// page from its surviving preconditioned image (d = M d̂) — straight from
// the CSR rows of the block.
func (p *BlockJacobi) MulBlock(i int, v, u []float64) error {
	lo, hi := p.layout.Range(i)
	p.a.MulVecRangeWithinCols(v, u[lo:hi], lo, hi, lo, hi)
	return nil
}

// Solver returns the factorized solver of diagonal block i, so recovery
// code can reuse the existing factorization (the paper picks a 512-block
// block-Jacobi precisely because "the factorization of diagonal blocks for
// the recovery of single errors is already computed", §5.1).
func (p *BlockJacobi) Solver(i int) sparse.BlockSolver { return p.solvers[i] }
