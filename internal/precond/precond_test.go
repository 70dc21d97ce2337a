package precond

import (
	"math"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestIdentityApply(t *testing.T) {
	p := NewIdentity(10, 4)
	v := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	u := make([]float64, 10)
	p.Apply(v, u)
	for i := range v {
		if u[i] != v[i] {
			t.Fatalf("u[%d] = %v", i, u[i])
		}
	}
	if p.Layout().NumBlocks() != 3 {
		t.Fatalf("blocks = %d", p.Layout().NumBlocks())
	}
}

func TestIdentityApplyBlock(t *testing.T) {
	p := NewIdentity(10, 4)
	v := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	u := make([]float64, 10)
	if err := p.ApplyBlock(1, v, u); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := 0.0
		if i >= 4 && i < 8 {
			want = v[i]
		}
		if u[i] != want {
			t.Fatalf("u[%d] = %v, want %v", i, u[i], want)
		}
	}
}

func TestBlockJacobiSolvesBlockSystems(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	bj, err := NewBlockJacobi(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	v := matgen.RandomVector(64, 1)
	u := make([]float64, 64)
	bj.Apply(v, u)
	// Verify block-wise: A_ii u_i = v_i.
	layout := bj.Layout()
	for blk := 0; blk < layout.NumBlocks(); blk++ {
		lo, hi := layout.Range(blk)
		d := a.DiagBlock(lo, hi)
		check := make([]float64, hi-lo)
		d.MulVec(u[lo:hi], check)
		for i := range check {
			if math.Abs(check[i]-v[lo+i]) > 1e-10 {
				t.Fatalf("block %d row %d: %v != %v", blk, i, check[i], v[lo+i])
			}
		}
	}
}

func TestBlockJacobiApplyBlockMatchesFullApply(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	bj, err := NewBlockJacobi(a, 32)
	if err != nil {
		t.Fatal(err)
	}
	v := matgen.RandomVector(100, 2)
	full := make([]float64, 100)
	bj.Apply(v, full)
	partial := make([]float64, 100)
	for blk := 0; blk < bj.Layout().NumBlocks(); blk++ {
		if err := bj.ApplyBlock(blk, v, partial); err != nil {
			t.Fatal(err)
		}
	}
	for i := range full {
		if full[i] != partial[i] {
			t.Fatalf("element %d differs: %v vs %v", i, full[i], partial[i])
		}
	}
}

func TestBlockJacobiDefaultBlockSize(t *testing.T) {
	a := matgen.Poisson2D(30, 30) // 900 elements: 2 pages of 512
	bj, err := NewBlockJacobi(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Layout().BlockSize != 512 {
		t.Fatalf("default block size = %d", bj.Layout().BlockSize)
	}
	if bj.Layout().NumBlocks() != 2 {
		t.Fatalf("blocks = %d", bj.Layout().NumBlocks())
	}
	if bj.Solver(0) == nil || bj.Solver(1) == nil {
		t.Fatal("solvers not exposed")
	}
}

func TestBlockJacobiIsContractionForSPD(t *testing.T) {
	// For SPD A, block-Jacobi preconditioning must keep z = M^{-1} g a
	// descent direction: <z, g> > 0 for g != 0.
	a := matgen.Thermal2Analogue(400)
	bj, err := NewBlockJacobi(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		g := matgen.RandomVector(a.N, seed)
		z := make([]float64, a.N)
		bj.Apply(g, z)
		if sparse.Dot(z, g) <= 0 {
			t.Fatalf("seed %d: <z,g> = %v, want > 0", seed, sparse.Dot(z, g))
		}
	}
}

func TestGeneralLUBlocks(t *testing.T) {
	// New(..., false) factorizes with LU: the non-symmetric case the
	// preconditioned BiCGStab/GMRES need. Round-trip: u = M⁻¹(M v).
	a := matgen.Thermal2Analogue(300)
	bj, err := New(a, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	v := matgen.RandomVector(a.N, 7)
	mv := make([]float64, a.N)
	u := make([]float64, a.N)
	for i := 0; i < bj.Layout().NumBlocks(); i++ {
		if err := bj.MulBlock(i, v, mv); err != nil {
			t.Fatal(err)
		}
		if err := bj.ApplyBlock(i, mv, u); err != nil {
			t.Fatal(err)
		}
	}
	for i := range v {
		if d := u[i] - v[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("round-trip u[%d] = %v, want %v", i, u[i], v[i])
		}
	}
}

func TestFromCacheReusesFactorizations(t *testing.T) {
	// FromCache must behave exactly like a fresh factorization — the §5.1
	// "factorizations come for free" reuse the shard substrate relies on.
	a := matgen.Thermal2Analogue(300)
	layout := sparse.BlockLayout{N: a.N, BlockSize: 64}
	cache := sparse.NewBlockSolverCache(a, layout, true)
	cache.PrefactorizeLenient()
	fromCache, err := FromCache(cache)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBlockJacobi(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	g := matgen.RandomVector(a.N, 3)
	z1 := make([]float64, a.N)
	z2 := make([]float64, a.N)
	fromCache.Apply(g, z1)
	fresh.Apply(g, z2)
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatalf("z[%d] = %v from cache, %v fresh", i, z1[i], z2[i])
		}
	}
}

func TestSolveBlockInPlaceMatchesApplyBlock(t *testing.T) {
	a := matgen.Thermal2Analogue(300)
	bj, err := NewBlockJacobi(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	v := matgen.RandomVector(a.N, 11)
	u := make([]float64, a.N)
	lo, hi := bj.Layout().Range(2)
	if err := bj.ApplyBlock(2, v, u); err != nil {
		t.Fatal(err)
	}
	buf := append([]float64(nil), v[lo:hi]...)
	if err := bj.SolveBlockInPlace(2, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != u[lo+i] {
			t.Fatalf("buf[%d] = %v, want %v", i, buf[i], u[lo+i])
		}
	}
}

// TestMulBlockMatchesDenseProduct: the CSR-row product of a diagonal block
// is the dense block's row sums, bit for bit, on a stencil, a scattered
// and a banded operator (short last block included), and leaves the rest
// of u alone.
func TestMulBlockMatchesDenseProduct(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{
		"thermal2":  matgen.Thermal2Analogue(300),
		"randomspd": matgen.RandomSPD(300, 9, 1.5, 5),
		"banded":    matgen.Banded(300, 7, 1.2, 3),
	} {
		bj, err := New(a, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		v := matgen.RandomVector(a.N, 13)
		for i := 0; i < bj.Layout().NumBlocks(); i++ {
			lo, hi := bj.Layout().Range(i)
			want := make([]float64, hi-lo)
			a.DiagBlock(lo, hi).MulVec(v[lo:hi], want)
			u := make([]float64, a.N)
			if err := bj.MulBlock(i, v, u); err != nil {
				t.Fatal(err)
			}
			for k := range u {
				w := 0.0
				if k >= lo && k < hi {
					w = want[k-lo]
				}
				if math.Float64bits(u[k]) != math.Float64bits(w) {
					t.Fatalf("%s block %d: u[%d] = %v, dense product %v", name, i, k, u[k], w)
				}
			}
		}
	}
}

// TestBlockOpsDoNotAllocate: ApplyBlock runs once per page per iteration
// and MulBlock inside recoveries; neither may allocate.
func TestBlockOpsDoNotAllocate(t *testing.T) {
	a := matgen.Thermal2Analogue(2048)
	v := matgen.RandomVector(a.N, 1)
	u := make([]float64, a.N)
	for _, spd := range []bool{true, false} {
		bj, err := New(a, 512, spd)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { _ = bj.ApplyBlock(1, v, u) }); n != 0 {
			t.Errorf("spd=%v: ApplyBlock allocates %v times per call", spd, n)
		}
		if n := testing.AllocsPerRun(10, func() { _ = bj.MulBlock(1, v, u) }); n != 0 {
			t.Errorf("spd=%v: MulBlock allocates %v times per call", spd, n)
		}
	}
}
