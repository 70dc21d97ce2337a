package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotRangeSumsToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var s float64
	for lo := 0; lo < len(x); lo += 137 {
		hi := lo + 137
		if hi > len(x) {
			hi = len(x)
		}
		s += DotRange(x, y, lo, hi)
	}
	if !almostEqual(s, Dot(x, y), 1e-12) {
		t.Fatalf("partial dots %v != full dot %v", s, Dot(x, y))
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpyRangeOnlyTouchesRange(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	y := []float64{0, 0, 0, 0}
	AxpyRange(5, x, y, 1, 3)
	want := []float64{0, 5, 5, 0}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("AxpyRange[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestXpbyMatchesFormula(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	Xpby(x, 10, y)
	if y[0] != 31 || y[1] != 42 {
		t.Fatalf("Xpby = %v, want [31 42]", y)
	}
}

func TestXpbyOutLeavesInputs(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	out := make([]float64, 2)
	XpbyOut(x, 2, y, out)
	if out[0] != 7 || out[1] != 10 {
		t.Fatalf("XpbyOut = %v, want [7 10]", out)
	}
	if x[0] != 1 || y[0] != 3 {
		t.Fatal("XpbyOut modified inputs")
	}
}

func TestAxpy2MatchesTwoAxpys(t *testing.T) {
	x1 := []float64{1, 2}
	x2 := []float64{3, 4}
	y := []float64{10, 20}
	Axpy2(2, x1, 3, x2, y) // y += 2*x1 + 3*x2
	if y[0] != 21 || y[1] != 36 {
		t.Fatalf("Axpy2 = %v, want [21 36]", y)
	}
	out := []float64{9, 9, 9}
	Axpy2Range(1, []float64{1, 1, 1}, 1, []float64{2, 2, 2}, out, 1, 2)
	if out[0] != 9 || out[1] != 12 || out[2] != 9 {
		t.Fatalf("Axpy2Range = %v", out)
	}
}

func TestXpbyzOut(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	z := []float64{5, 6}
	out := make([]float64, 2)
	XpbyzOut(x, 2, y, 0.5, z, out) // out = x + 2*(y - 0.5*z)
	if out[0] != 2 || out[1] != 4 {
		t.Fatalf("XpbyzOut = %v, want [2 4]", out)
	}
	// Aliased out == y: the BiCGStab in-place direction update
	// d = g + beta*(d - omega*q) must stay elementwise-safe.
	d := []float64{3, 4}
	XpbyzOut(x, 2, d, 0.5, z, d)
	if d[0] != 2 || d[1] != 4 {
		t.Fatalf("aliased XpbyzOut = %v, want [2 4]", d)
	}
}

func TestXpbyOutRange(t *testing.T) {
	x := []float64{1, 1, 1}
	y := []float64{2, 2, 2}
	out := []float64{9, 9, 9}
	XpbyOutRange(x, 3, y, out, 1, 2)
	if out[0] != 9 || out[1] != 7 || out[2] != 9 {
		t.Fatalf("XpbyOutRange = %v", out)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2Zero(t *testing.T) {
	if got := Norm2([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Norm2 zeros = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2 nil = %v", got)
	}
}

func TestNorm2NoOverflow(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if !almostEqual(got, want, 1e-14) {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
}

func TestNorm2NaN(t *testing.T) {
	if got := Norm2([]float64{1, math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("Norm2 with NaN = %v, want NaN", got)
	}
}

// norm2Scaled is Norm2's scaled formula without its NaN and Inf cases: the
// oracle for finite input, whose result the benchmark's verifier reads to
// the bit.
func norm2Scaled(x []float64) float64 {
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// TestNorm2Table: finite input keeps the scaled formula bit for bit; a NaN
// anywhere makes the norm NaN, and an infinity with no NaN makes it +Inf.
func TestNorm2Table(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		name string
		x    []float64
		want float64 // NaN, ±Inf; 0 means "the scaled formula"
	}{
		{"zeros", []float64{0, math.Copysign(0, -1), 0}, 0},
		{"empty", nil, 0},
		{"near 1e300", []float64{1e300, -3e300, 2e299}, 0},
		{"near 1e-300", []float64{1e-300, -3e-300, 2e-301}, 0},
		{"mixed scales", []float64{1e300, 1e-300, -7}, 0},
		{"subnormals", []float64{sub, -3 * sub, 1e-310}, 0},
		{"one NaN", []float64{1, nan, 2}, nan},
		{"NaN first", []float64{nan, 5, -7}, nan},
		{"all NaN", []float64{nan, nan, nan}, nan},
		{"+Inf", []float64{1, inf, 2}, inf},
		{"-Inf", []float64{-inf, 1}, inf},
		{"Inf then NaN", []float64{inf, nan}, nan},
		{"NaN then Inf", []float64{nan, -inf}, nan},
	} {
		got := Norm2(tc.x)
		switch {
		case math.IsNaN(tc.want):
			if !math.IsNaN(got) {
				t.Errorf("%s: Norm2 = %v, want NaN", tc.name, got)
			}
		case tc.want != 0:
			if got != tc.want {
				t.Errorf("%s: Norm2 = %v, want %v", tc.name, got, tc.want)
			}
		default:
			if want := norm2Scaled(tc.x); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: Norm2 = %v, scaled formula %v", tc.name, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 50; k++ {
		x := make([]float64, 1+rng.Intn(200))
		for i := range x {
			x[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
		}
		if got, want := Norm2(x), norm2Scaled(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("random vector %d: Norm2 = %v, scaled formula %v", k, got, want)
		}
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{-7, 3, 5}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestSubAdd(t *testing.T) {
	a := []float64{5, 6}
	b := []float64{1, 2}
	out := make([]float64, 2)
	Sub(a, b, out)
	if out[0] != 4 || out[1] != 4 {
		t.Fatalf("Sub = %v", out)
	}
	Add(a, b, out)
	if out[0] != 6 || out[1] != 8 {
		t.Fatalf("Add = %v", out)
	}
}

func TestHasNonFinite(t *testing.T) {
	if HasNonFinite([]float64{1, 2, 3}) {
		t.Fatal("finite slice flagged")
	}
	if !HasNonFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not flagged")
	}
	if !HasNonFinite([]float64{math.Inf(-1)}) {
		t.Fatal("-Inf not flagged")
	}
}

func TestScaleFillCopy(t *testing.T) {
	x := []float64{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scale = %v", x)
	}
	Fill(x, 7)
	if x[0] != 7 || x[1] != 7 {
		t.Fatalf("Fill = %v", x)
	}
	y := make([]float64, 2)
	Copy(y, x)
	if y[0] != 7 || y[1] != 7 {
		t.Fatalf("Copy = %v", y)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotPropertySymmetry(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		d1, d2 := Dot(a, b), Dot(b, a)
		return (math.IsNaN(d1) && math.IsNaN(d2)) || d1 == d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Norm2(x)^2 ≈ Dot(x,x) for well-scaled inputs.
func TestNorm2PropertyMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		n2 := Norm2(x)
		if !almostEqual(n2*n2, Dot(x, x), 1e-12) {
			t.Fatalf("Norm2^2 = %v, Dot = %v", n2*n2, Dot(x, x))
		}
	}
}
