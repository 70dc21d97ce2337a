package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBlockLayout(t *testing.T) {
	b := BlockLayout{N: 10, BlockSize: 4}
	if b.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", b.NumBlocks())
	}
	cases := []struct{ i, lo, hi int }{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}
	for _, c := range cases {
		lo, hi := b.Range(c.i)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("Range(%d) = [%d,%d), want [%d,%d)", c.i, lo, hi, c.lo, c.hi)
		}
	}
	if b.BlockOf(0) != 0 || b.BlockOf(3) != 0 || b.BlockOf(4) != 1 || b.BlockOf(9) != 2 {
		t.Fatal("BlockOf wrong")
	}
}

func TestBlockLayoutEmpty(t *testing.T) {
	b := BlockLayout{N: 0, BlockSize: 4}
	if b.NumBlocks() != 0 {
		t.Fatalf("NumBlocks = %d, want 0", b.NumBlocks())
	}
}

func TestBlockLayoutExactMultiple(t *testing.T) {
	b := BlockLayout{N: 8, BlockSize: 4}
	if b.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", b.NumBlocks())
	}
	lo, hi := b.Range(1)
	if lo != 4 || hi != 8 {
		t.Fatalf("Range(1) = [%d,%d)", lo, hi)
	}
}

// spdSparse builds a symmetric positive definite sparse matrix: a 1-D
// Laplacian with a diagonal shift.
func spdSparse(n int) *CSR {
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4})
		if i > 0 {
			tr = append(tr, Triplet{i, i - 1, -1})
		}
		if i < n-1 {
			tr = append(tr, Triplet{i, i + 1, -1})
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

func TestBlockSolverCacheSolvesBlockSystem(t *testing.T) {
	n, bs := 64, 16
	a := spdSparse(n)
	layout := BlockLayout{N: n, BlockSize: bs}
	cache := NewBlockSolverCache(a, layout, true)

	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// For block 1: rhs = A_11 * x_1. Solving must return x_1.
	lo, hi := layout.Range(1)
	blk := a.DiagBlock(lo, hi)
	rhs := make([]float64, hi-lo)
	blk.MulVec(x[lo:hi], rhs)
	if err := cache.SolveDiagBlock(1, rhs); err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		if !almostEqual(rhs[i], x[lo+i], 1e-10) {
			t.Fatalf("block solve x[%d] = %v, want %v", i, rhs[i], x[lo+i])
		}
	}
}

// TestFirstUseFactorsOnceConcurrently: eight goroutines ask for one
// unfactorized block at once, half through Solver and half through
// SolveDiagBlock. The block is factorized exactly once, every caller gets
// that one solver, and every solve gives the same bits.
func TestFirstUseFactorsOnceConcurrently(t *testing.T) {
	const n, bs, blk, callers = 2048, 512, 2, 8
	cache := NewBlockSolverCache(spdSparse(n), BlockLayout{N: n, BlockSize: bs}, true)
	solvers := make([]BlockSolver, callers)
	xs := make([][]float64, callers)
	before := FactorizationCount()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs[g] = make([]float64, bs)
			for i := range xs[g] {
				xs[g][i] = float64(i%7) - 3
			}
			<-start
			var err error
			if g%2 == 0 {
				solvers[g], err = cache.Solver(blk)
				if err == nil {
					err = solvers[g].SolveInPlace(xs[g])
				}
			} else if err = cache.SolveDiagBlock(blk, xs[g]); err == nil {
				solvers[g], err = cache.Solver(blk)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if d := FactorizationCount() - before; d != 1 {
		t.Fatalf("%d concurrent first uses factorized %d times, want 1", callers, d)
	}
	for g := 1; g < callers; g++ {
		if solvers[g] != solvers[0] {
			t.Fatalf("caller %d got a different solver", g)
		}
		for i := range xs[g] {
			if xs[g][i] != xs[0][i] {
				t.Fatalf("caller %d element %d: %v, caller 0: %v", g, i, xs[g][i], xs[0][i])
			}
		}
	}
	if cache.Bytes() != solvers[0].Bytes() {
		t.Fatalf("cache holds %d bytes, its one factor %d", cache.Bytes(), solvers[0].Bytes())
	}
}

func TestBlockSolverCacheCachesAndPrefactorizes(t *testing.T) {
	n, bs := 32, 8
	a := spdSparse(n)
	cache := NewBlockSolverCache(a, BlockLayout{N: n, BlockSize: bs}, true)
	cache.PrefactorizeLenient()
	for i := range cache.blocks {
		if f := cache.blocks[i].done.Load(); f == nil || f.solver == nil || f.err != nil {
			t.Fatalf("block %d not factorized by PrefactorizeLenient", i)
		}
	}
	s1, err := cache.Solver(2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Solver(2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Solver not cached")
	}
}

func TestSolveCoupledBlocksRecoversExactly(t *testing.T) {
	// Full-rank SPD matrix; losing two adjacent blocks and solving the
	// coupled system must reproduce the lost entries exactly, because the
	// relation g = b - Ax holds with g known.
	n, bs := 48, 8
	a := spdSparse(n)
	layout := BlockLayout{N: n, BlockSize: bs}
	cache := NewBlockSolverCache(a, layout, true)

	rng := rand.New(rand.NewSource(9))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b) // so that g = b - A x = 0 for xTrue

	// Lose blocks 2 and 3 of x. Build rhs_i = b_i - 0 - sum_{j not in failed} A_ij x_j.
	failed := []int{3, 2} // deliberately unsorted
	var rhs []float64
	exclude := [][2]int{}
	for _, fb := range []int{2, 3} {
		lo, hi := layout.Range(fb)
		exclude = append(exclude, [2]int{lo, hi})
	}
	for _, fb := range []int{2, 3} {
		lo, hi := layout.Range(fb)
		part := make([]float64, hi-lo)
		a.MulVecRangeExcludingBlocks(xTrue, part, lo, hi, exclude)
		for i := lo; i < hi; i++ {
			part[i-lo] = b[i] - part[i-lo]
		}
		rhs = append(rhs, part...)
	}
	order, err := cache.SolveCoupledBlocks(failed, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
	off := 0
	for _, fb := range order {
		lo, hi := layout.Range(fb)
		for i := lo; i < hi; i++ {
			if !almostEqual(rhs[off+i-lo], xTrue[i], 1e-9) {
				t.Fatalf("coupled recovery x[%d] = %v, want %v", i, rhs[off+i-lo], xTrue[i])
			}
		}
		off += hi - lo
	}
}

func TestSolveCoupledBlocksRejectsBadInput(t *testing.T) {
	a := spdSparse(16)
	cache := NewBlockSolverCache(a, BlockLayout{N: 16, BlockSize: 4}, true)
	if _, err := cache.SolveCoupledBlocks(nil, nil); err == nil {
		t.Fatal("accepted empty block list")
	}
	if _, err := cache.SolveCoupledBlocks([]int{1, 1}, make([]float64, 8)); err == nil {
		t.Fatal("accepted duplicate blocks")
	}
	if _, err := cache.SolveCoupledBlocks([]int{0}, make([]float64, 3)); err == nil {
		t.Fatal("accepted wrong rhs dimension")
	}
}

func TestSolveCoupledBlocksThreeBlocks(t *testing.T) {
	n, bs := 60, 10
	a := spdSparse(n)
	layout := BlockLayout{N: n, BlockSize: bs}
	cache := NewBlockSolverCache(a, layout, true)
	rng := rand.New(rand.NewSource(21))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b)
	blocks := []int{0, 2, 5}
	var exclude [][2]int
	for _, fb := range blocks {
		lo, hi := layout.Range(fb)
		exclude = append(exclude, [2]int{lo, hi})
	}
	var rhs []float64
	for _, fb := range blocks {
		lo, hi := layout.Range(fb)
		part := make([]float64, hi-lo)
		a.MulVecRangeExcludingBlocks(xTrue, part, lo, hi, exclude)
		for i := lo; i < hi; i++ {
			part[i-lo] = b[i] - part[i-lo]
		}
		rhs = append(rhs, part...)
	}
	order, err := cache.SolveCoupledBlocks(blocks, rhs)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, fb := range order {
		lo, hi := layout.Range(fb)
		for i := lo; i < hi; i++ {
			if !almostEqual(rhs[off+i-lo], xTrue[i], 1e-8) {
				t.Fatalf("3-block recovery x[%d] = %v, want %v", i, rhs[off+i-lo], xTrue[i])
			}
		}
		off += hi - lo
	}
}
