package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDDense builds a random dense SPD matrix M = Bᵀ B + n·I.
func randomSPDDense(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			m.Set(i, j, s)
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 17, 64} {
		m := randomSPDDense(n, rng)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(want, b)
		c, err := NewCholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		c.Solve(b)
		for i := range b {
			if !almostEqual(b[i], want[i], 1e-9) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, b[i], want[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, -1)
	if _, err := NewCholesky(m); err == nil {
		t.Fatal("Cholesky accepted indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("Cholesky accepted non-square")
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 10, 40} {
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			m.Add(i, i, float64(2*n)) // well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(want, b)
		f, err := NewLU(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := f.Solve(b)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-9) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestLUPivots(t *testing.T) {
	// Zero on the (0,0) entry requires pivoting.
	m := NewDense(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	f, err := NewLU(m)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{3, 5})
	if !almostEqual(x[0], 5, 1e-14) || !almostEqual(x[1], 3, 1e-14) {
		t.Fatalf("x = %v, want [5 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := NewLU(m); err == nil {
		t.Fatal("LU accepted singular matrix")
	}
}

func TestLUDet(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	f, err := NewLU(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Det(), 5, 1e-12) {
		t.Fatalf("Det = %v, want 5", f.Det())
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares equals exact solve.
	rng := rand.New(rand.NewSource(3))
	n := 12
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(2*n))
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(want, b)
	q, err := NewQR(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQROverdetermined(t *testing.T) {
	// Fit y = 2x + 1 with noise-free data: residual zero.
	xs := []float64{0, 1, 2, 3, 4}
	m := NewDense(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		m.Set(i, 0, x)
		m.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	q, err := NewQR(m)
	if err != nil {
		t.Fatal(err)
	}
	coef, err := q.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 2, 1e-12) || !almostEqual(coef[1], 1, 1e-12) {
		t.Fatalf("coef = %v, want [2 1]", coef)
	}
}

func TestQRResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(4))
	m, n := 20, 6
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	q, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := q.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	ax := make([]float64, m)
	a.MulVec(x, ax)
	res := make([]float64, m)
	Sub(b, ax, res)
	// Aᵀ r should be ~ 0.
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			s += a.At(i, j) * res[i]
		}
		if math.Abs(s) > 1e-10 {
			t.Fatalf("column %d not orthogonal to residual: %v", j, s)
		}
	}
}

func TestQRRejectsUnderdetermined(t *testing.T) {
	if _, err := NewQR(NewDense(2, 3)); err == nil {
		t.Fatal("QR accepted m < n")
	}
}

func TestFactorizeBlockPrefersCholeskyThenFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spd := randomSPDDense(8, rng)
	s, err := FactorizeBlock(spd, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Cholesky); !ok {
		t.Fatalf("SPD block solver is %T, want *Cholesky", s)
	}
	// Non-symmetric block with spd=true must fall back to LU.
	m := NewDense(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	s, err = FactorizeBlock(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*LU); !ok {
		t.Fatalf("indefinite block solver is %T, want *LU", s)
	}
	// Singular block falls all the way to QR.
	sing := NewDense(2, 2)
	sing.Set(0, 0, 1)
	sing.Set(0, 1, 1)
	sing.Set(1, 0, 1)
	sing.Set(1, 1, 1)
	s, err = FactorizeBlock(sing, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*QR); !ok {
		t.Fatalf("singular block solver is %T, want *QR", s)
	}
}

func TestBlockSolverSolveInPlaceAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 16
	spd := randomSPDDense(n, rng)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := make([]float64, n)
	spd.MulVec(want, rhs)
	for _, claim := range []bool{true, false} {
		r := append([]float64(nil), rhs...)
		s, err := FactorizeBlock(spd, claim)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SolveInPlace(r); err != nil {
			t.Fatal(err)
		}
		for i := range r {
			if !almostEqual(r[i], want[i], 1e-8) {
				t.Fatalf("spd=%v x[%d] = %v, want %v", claim, i, r[i], want[i])
			}
		}
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1] = [6 15]
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}
