package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genMatrix draws a random small diagonally dominant CSR matrix for
// property tests.
func genMatrix(rng *rand.Rand) *CSR {
	n := 2 + rng.Intn(30)
	return randomSparse(n, 1+rng.Intn(5), rng)
}

type matrixAndVec struct {
	A *CSR
	X []float64
}

// Generate implements quick.Generator.
func (matrixAndVec) Generate(rng *rand.Rand, _ int) reflect.Value {
	a := genMatrix(rng)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return reflect.ValueOf(matrixAndVec{A: a, X: x})
}

// Property: SpMV is linear — A(ax + by) = a·Ax + b·Ay.
func TestPropertySpMVLinear(t *testing.T) {
	f := func(mv matrixAndVec, a8, b8 int8) bool {
		al, be := float64(a8)/16, float64(b8)/16
		a := mv.A
		x := mv.X
		y := make([]float64, a.N)
		for i := range y {
			y[i] = float64(i%7) - 3
		}
		lhsIn := make([]float64, a.N)
		for i := range lhsIn {
			lhsIn[i] = al*x[i] + be*y[i]
		}
		lhs := make([]float64, a.N)
		a.MulVec(lhsIn, lhs)
		ax := make([]float64, a.N)
		ay := make([]float64, a.N)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		for i := range lhs {
			want := al*ax[i] + be*ay[i]
			if !almostEqual(lhs[i], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution preserving every entry.
func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(mv matrixAndVec) bool {
		a := mv.A
		att := a.Transpose().Transpose()
		if att.N != a.N || att.NNZ() != a.NNZ() {
			return false
		}
		ra, rt := WithArrays(a), WithArrays(att)
		for i := range ra.Vals {
			if rt.Vals[i] != ra.Vals[i] || rt.Cols[i] != ra.Cols[i] {
				return false
			}
		}
		return att.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: excluding zero columns changes nothing; excluding all columns
// yields zero.
func TestPropertyExclusionBounds(t *testing.T) {
	f := func(mv matrixAndVec) bool {
		a, x := mv.A, mv.X
		full := make([]float64, a.N)
		a.MulVec(x, full)
		none := make([]float64, a.N)
		a.MulVecRangeExcludingCols(x, none, 0, a.N, 0, 0)
		all := make([]float64, a.N)
		a.MulVecRangeExcludingCols(x, all, 0, a.N, 0, a.N)
		for i := range full {
			if !almostEqual(none[i], full[i], 1e-12) || all[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a diagonally dominant matrix's diagonal block solve is the
// inverse of the block's own multiplication.
func TestPropertyBlockSolveInverse(t *testing.T) {
	f := func(mv matrixAndVec, rawBS uint8) bool {
		a := mv.A
		bs := 1 + int(rawBS)%a.N
		layout := BlockLayout{N: a.N, BlockSize: bs}
		cache := NewBlockSolverCache(a, layout, false)
		for blk := 0; blk < layout.NumBlocks(); blk++ {
			lo, hi := layout.Range(blk)
			want := mv.X[lo:hi]
			rhs := make([]float64, hi-lo)
			a.DiagBlock(lo, hi).MulVec(want, rhs)
			if err := cache.SolveDiagBlock(blk, rhs); err != nil {
				return false
			}
			for i := range rhs {
				if !almostEqual(rhs[i], want[i], 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Norm2 satisfies the triangle inequality and scaling axioms.
func TestPropertyNormAxioms(t *testing.T) {
	f := func(xs, ys []float64, s8 int8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			// Axioms only claimed where x+y itself cannot overflow.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		if Norm2(sum) > Norm2(x)+Norm2(y)+1e-9*(1+Norm2(x)+Norm2(y)) {
			return false
		}
		sc := float64(s8) / 8
		scaled := make([]float64, n)
		for i := range scaled {
			scaled[i] = sc * x[i]
		}
		want := math.Abs(sc) * Norm2(x)
		return almostEqual(Norm2(scaled), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky of Bᵀ B + nI always succeeds and solves correctly.
func TestPropertyCholeskyOnGram(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		m := randomSPDDense(n, rng)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := make([]float64, n)
		m.MulVec(want, rhs)
		c, err := NewCholesky(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c.Solve(rhs)
		for i := range rhs {
			if !almostEqual(rhs[i], want[i], 1e-7) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, rhs[i], want[i])
			}
		}
	}
}
