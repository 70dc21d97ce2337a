package core

import (
	"math"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// asymmetric builds a diagonally dominant non-symmetric test system.
func asymmetric(n int) (*sparse.CSR, []float64, []float64) {
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i - 1, Val: -1.4})
		}
		if i < n-1 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i + 1, Val: -0.6})
		}
	}
	a := sparse.NewCSRFromTriplets(n, n, tr)
	want := matgen.RandomVector(n, 33)
	b := make([]float64, n)
	a.MulVec(want, b)
	return a, b, want
}

func bicgCfg() Config {
	return Config{Method: MethodFEIR, PageDoubles: 64, Tol: 1e-10, MaxIter: 5000}
}

func TestBiCGStabNoErrors(t *testing.T) {
	a, b, want := asymmetric(1000)
	sv, err := NewBiCGStab(a, b, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, x, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestBiCGStabRecoversEveryVector(t *testing.T) {
	a, b, want := asymmetric(1000)
	for _, vec := range []string{"x", "g", "q", "d0", "d1", "s", "t"} {
		sv, err := NewBiCGStab(a, b, bicgCfg())
		if err != nil {
			t.Fatal(err)
		}
		cfg := bicgCfg()
		cfg.OnIteration = func(it int, rel float64) {
			if it == 5 {
				sv.Space().VectorByName(vec).Poison(3)
			}
		}
		sv.cfg = cfg
		res, x, err := sv.Run()
		if err != nil {
			t.Fatalf("error in %s: %v", vec, err)
		}
		if !res.Converged {
			t.Fatalf("error in %s: not converged %+v", vec, res)
		}
		if res.Stats.FaultsSeen == 0 {
			t.Fatalf("error in %s never seen", vec)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-5 {
				t.Fatalf("error in %s: x[%d] = %v, want %v", vec, i, x[i], want[i])
			}
		}
	}
}

func TestBiCGStabExactRecoveryKeepsIterationCount(t *testing.T) {
	a, b, _ := asymmetric(1200)
	sv, err := NewBiCGStab(a, b, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	sv2, err := NewBiCGStab(a, b, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bicgCfg()
	cfg.OnIteration = func(it int, rel float64) {
		if it == 4 {
			sv2.Space().VectorByName("g").Poison(2)
			sv2.Space().VectorByName("d1").Poison(6)
		}
	}
	sv2.cfg = cfg
	res, _, err := sv2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if d := res.Iterations - base.Iterations; d < -1 || d > 1 {
		t.Fatalf("iterations %d vs fault-free %d", res.Iterations, base.Iterations)
	}
	if res.Stats.RecoveredForward+res.Stats.RecoveredInverse == 0 {
		t.Fatalf("no exact recoveries recorded: %+v", res.Stats)
	}
}

func TestGMRESNoErrors(t *testing.T) {
	a, b, want := asymmetric(900)
	sv, err := NewGMRES(a, b, 25, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, x, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestGMRESRecoversBasisVectors(t *testing.T) {
	a, b, want := asymmetric(900)
	for _, vec := range []string{"x", "g", "v0", "v2", "v5"} {
		sv, err := NewGMRES(a, b, 20, bicgCfg())
		if err != nil {
			t.Fatal(err)
		}
		cfg := bicgCfg()
		cfg.OnIteration = func(it int, rel float64) {
			if it == 8 { // mid-cycle: several basis vectors alive
				sv.Space().VectorByName(vec).Poison(4)
			}
		}
		sv.cfg = cfg
		res, x, err := sv.Run()
		if err != nil {
			t.Fatalf("error in %s: %v", vec, err)
		}
		if !res.Converged {
			t.Fatalf("error in %s: not converged %+v", vec, res)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-5 {
				t.Fatalf("error in %s: wrong solution", vec)
			}
		}
		if res.Stats.FaultsSeen == 0 {
			t.Fatalf("error in %s never seen", vec)
		}
	}
}

func TestGMRESBasisRecoveryIsExact(t *testing.T) {
	// Poison a mid-cycle basis vector and verify the run converges with
	// at most one extra restart cycle relative to fault-free.
	a, b, _ := asymmetric(1200)
	sv, err := NewGMRES(a, b, 30, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	sv2, err := NewGMRES(a, b, 30, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bicgCfg()
	cfg.OnIteration = func(it int, rel float64) {
		if it == 10 {
			sv2.Space().VectorByName("v3").Poison(7)
		}
	}
	sv2.cfg = cfg
	res, _, err := sv2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Iterations > base.Iterations+30 {
		t.Fatalf("recovery cost too much: %d vs %d iterations", res.Iterations, base.Iterations)
	}
	if res.Stats.RecoveredForward == 0 {
		t.Fatalf("no forward recoveries recorded: %+v", res.Stats)
	}
}

func TestGMRESRestartBound(t *testing.T) {
	a, b, _ := asymmetric(100)
	if _, err := NewGMRES(a, b, 80, bicgCfg()); err == nil {
		t.Fatal("accepted restart exceeding the protectable-vector bound")
	}
}

func TestBiCGStabValidation(t *testing.T) {
	a, b, _ := asymmetric(100)
	if _, err := NewBiCGStab(a, b[:10], bicgCfg()); err == nil {
		t.Fatal("accepted bad rhs")
	}
}

// TestFinalResidualIsTheAcceptedOne: Result.RelResidual is the true
// residual the accepting convergence check computed, kept — not a second
// pass over the unchanged x. It is still bit for bit ‖b − Ax‖/‖b‖ of the
// solution handed back, for CG and BiCGStab.
func TestFinalResidualIsTheAcceptedOne(t *testing.T) {
	a, b := testSystem()
	trueRel := func(rhs, x []float64) float64 {
		r := make([]float64, a.N)
		a.MulVec(x, r)
		sparse.Sub(rhs, r, r)
		return sparse.Norm2(r) / sparse.Norm2(rhs)
	}
	cg, err := NewCG(a, b, testConfig(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cg.Run(); err != nil || !res.Converged || res.RelResidual != trueRel(b, cg.Solution()) {
		t.Fatalf("CG: reported %x, recomputed %x (converged=%v err=%v)", res.RelResidual, trueRel(b, cg.Solution()), res.Converged, err)
	}
	bi, err := NewBiCGStab(a, b, testConfig(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	if res, x, err := bi.Run(); err != nil || !res.Converged || res.RelResidual != trueRel(b, x) {
		t.Fatalf("BiCGStab: reported %x, recomputed %x (converged=%v err=%v)", res.RelResidual, trueRel(b, x), res.Converged, err)
	}
}
