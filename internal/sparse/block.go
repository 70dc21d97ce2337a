package sparse

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// BlockLayout describes the partition of an n-vector into contiguous blocks
// of a fixed size (the memory-page granularity of the fault model: 512
// float64 per 4 KiB page). The last block may be shorter.
type BlockLayout struct {
	N         int // vector length
	BlockSize int // elements per block
}

// NumBlocks returns the number of blocks covering the vector.
func (b BlockLayout) NumBlocks() int {
	if b.N == 0 {
		return 0
	}
	return (b.N + b.BlockSize - 1) / b.BlockSize
}

// Range returns the half-open element range [lo, hi) of block i.
func (b BlockLayout) Range(i int) (lo, hi int) {
	lo = i * b.BlockSize
	hi = lo + b.BlockSize
	if hi > b.N {
		hi = b.N
	}
	if lo > b.N {
		lo = b.N
	}
	return lo, hi
}

// BlockOf returns the block index containing element e.
func (b BlockLayout) BlockOf(e int) int { return e / b.BlockSize }

// BlockSolverCache factorizes diagonal blocks at first use and caches
// their solvers for a fixed matrix and block layout. The paper notes that
// with a block-Jacobi preconditioner whose block size coincides with the
// page size, these factorizations are already available for free (§5.1);
// this cache plays that role for the unpreconditioned solver too.
//
// All methods are safe for concurrent use. Each block is factorized
// exactly once, by its first caller, while concurrent callers for the same
// block wait for that result; later lookups are one atomic load.
type BlockSolverCache struct {
	A      *CSR
	Layout BlockLayout
	SPD    bool
	blocks []cachedBlock // indexed by block
	full   atomic.Bool   // set once a PrefactorizeLenient pass has finished
}

// cachedBlock is one block's slot: done is nil until the block has been
// factorized, then the outcome, a solver or the reason there is none.
type cachedBlock struct {
	once sync.Once
	done atomic.Pointer[factored]
}

type factored struct {
	solver BlockSolver
	err    error
}

// NewBlockSolverCache creates an empty cache for the given operator.
func NewBlockSolverCache(a *CSR, layout BlockLayout, spd bool) *BlockSolverCache {
	return &BlockSolverCache{A: a, Layout: layout, SPD: spd, blocks: make([]cachedBlock, layout.NumBlocks())}
}

// Solver returns the factorized solver for diagonal block i, computing and
// caching it (or the reason it cannot be factorized) on first use.
func (c *BlockSolverCache) Solver(i int) (BlockSolver, error) {
	if i < 0 || i >= len(c.blocks) {
		return nil, fmt.Errorf("sparse: empty block %d", i)
	}
	b := &c.blocks[i]
	f := b.done.Load()
	if f == nil {
		b.once.Do(func() {
			lo, hi := c.Layout.Range(i)
			s, err := factorBlock(hi-lo, c.A.spanRows([]span{{lo: lo, hi: hi}}), c.SPD)
			if err != nil {
				err = fmt.Errorf("sparse: factorizing diagonal block %d: %w", i, err)
			}
			b.done.Store(&factored{solver: s, err: err})
		})
		f = b.done.Load()
	}
	return f.solver, f.err
}

// PrefactorizeLenient factorizes every diagonal block not factorized yet,
// caching successes and remembering failures, so no later Solver lookup
// factorizes. It never fails: a block that cannot be factorized keeps
// returning its error from SolveDiagBlock, and callers fall back to
// restart-style recovery exactly as when the block is first asked for by
// a recovery.
//
// The blocks are independent and each factor is a pure function of its
// block, so they are factorized on GOMAXPROCS goroutines: the result is
// the same as the serial loop's. Calling it again is one atomic load.
func (c *BlockSolverCache) PrefactorizeLenient() {
	if c.full.Load() {
		return
	}
	defer c.full.Store(true)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(c.blocks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(c.blocks); i = int(next.Add(1)) - 1 {
				c.Solver(i)
			}
		}()
	}
	wg.Wait()
}

// Bytes returns the memory held by the factors computed so far.
func (c *BlockSolverCache) Bytes() int64 {
	var total int64
	for i := range c.blocks {
		if f := c.blocks[i].done.Load(); f != nil && f.solver != nil {
			total += f.solver.Bytes()
		}
	}
	return total
}

// SolveDiagBlock solves A_ii * x_i = rhs for block i in place.
func (c *BlockSolverCache) SolveDiagBlock(i int, rhs []float64) error {
	s, err := c.Solver(i)
	if err != nil {
		return err
	}
	return s.SolveInPlace(rhs)
}

// SolveCoupledBlocks solves the combined system of §2.4 for several failed
// blocks of the same vector simultaneously:
//
//	[ A_ii A_ij ] [x_i]   [rhs_i]
//	[ A_ji A_jj ] [x_j] = [rhs_j]
//
// generalized to any number of blocks. blocks must be distinct; rhs is the
// concatenation of the per-block right-hand sides in the order of blocks
// (after sorting ascending). On return rhs holds the concatenated solution,
// in sorted block order; the returned permutation maps position -> block id.
//
// The coupled operator is factorized like a diagonal block, straight from
// the CSR rows of the page set, renumbered and inside its bandwidth in
// the concatenated index space.
func (c *BlockSolverCache) SolveCoupledBlocks(blocks []int, rhs []float64) ([]int, error) {
	sorted, spans, dim, err := c.coupled(blocks)
	if err != nil {
		return nil, err
	}
	if len(rhs) != dim {
		return nil, fmt.Errorf("sparse: coupled rhs dim %d want %d", len(rhs), dim)
	}
	solver, err := factorBlock(dim, c.A.spanRows(spans), c.SPD)
	if err != nil {
		return nil, fmt.Errorf("sparse: coupled factorization of %d blocks: %w", len(sorted), err)
	}
	if err := solver.SolveInPlace(rhs); err != nil {
		return nil, err
	}
	return sorted, nil
}

// coupled returns the distinct blocks sorted, their spans in the
// concatenated index space, and its dimension.
func (c *BlockSolverCache) coupled(blocks []int) (sorted []int, spans []span, dim int, err error) {
	if len(blocks) == 0 {
		return nil, nil, 0, fmt.Errorf("sparse: SolveCoupledBlocks with no blocks")
	}
	sorted = append([]int(nil), blocks...)
	sort.Ints(sorted)
	spans = make([]span, len(sorted))
	for k, b := range sorted {
		if k > 0 && b == sorted[k-1] {
			return nil, nil, 0, fmt.Errorf("sparse: duplicate block %d", b)
		}
		lo, hi := c.Layout.Range(b)
		spans[k] = span{lo: lo, hi: hi, off: dim}
		dim += hi - lo
	}
	return sorted, spans, dim, nil
}
