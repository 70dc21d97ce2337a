package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// asymmetricHard builds a diagonally dominant non-symmetric system with
// couplings that cross page boundaries (±67 with 64-double pages), so
// the block-Jacobi preconditioner helps without being a direct solve —
// runs last long enough for storms to land.
func asymmetricHard(n int) (*sparse.CSR, []float64, []float64) {
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i - 1, Val: -1.4})
		}
		if i < n-1 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i + 1, Val: -0.6})
		}
		if i+67 < n {
			tr = append(tr, sparse.Triplet{Row: i, Col: i + 67, Val: -0.9})
		}
		if i-67 >= 0 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i - 67, Val: -0.7})
		}
	}
	a := sparse.NewCSRFromTriplets(n, n, tr)
	want := matgen.RandomVector(n, 33)
	b := make([]float64, n)
	a.MulVec(want, b)
	return a, b, want
}

func precondCfg(method Method) Config {
	cfg := bicgCfg()
	cfg.Method = method
	cfg.UsePrecond = true
	return cfg
}

// TestBiCGStabPrecondConvergesFaster pins the -precond contract: the
// preconditioned run reaches the exact solution in strictly fewer
// iterations than the unpreconditioned one.
func TestBiCGStabPrecondConvergesFaster(t *testing.T) {
	a, b, want := asymmetricHard(1000)
	sv, err := NewBiCGStab(a, b, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := sv.Run()
	if err != nil || !base.Converged {
		t.Fatalf("unpreconditioned: %+v err=%v", base, err)
	}
	svp, err := NewBiCGStab(a, b, precondCfg(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	res, x, err := svp.Run()
	if err != nil || !res.Converged {
		t.Fatalf("preconditioned: %+v err=%v", res, err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if res.Iterations >= base.Iterations {
		t.Fatalf("preconditioned run not faster: %d vs %d iterations", res.Iterations, base.Iterations)
	}
}

// TestGMRESPrecondConvergesFaster is the same contract for GMRES(m).
func TestGMRESPrecondConvergesFaster(t *testing.T) {
	a, b, want := asymmetricHard(1000)
	sv, err := NewGMRES(a, b, 20, bicgCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := sv.Run()
	if err != nil || !base.Converged {
		t.Fatalf("unpreconditioned: %+v err=%v", base, err)
	}
	svp, err := NewGMRES(a, b, 20, precondCfg(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	res, x, err := svp.Run()
	if err != nil || !res.Converged {
		t.Fatalf("preconditioned: %+v err=%v", res, err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if res.Iterations >= base.Iterations {
		t.Fatalf("preconditioned run not faster: %d vs %d iterations", res.Iterations, base.Iterations)
	}
}

// TestBiCGStabPrecondRecoversEveryVector poisons each protected vector
// of the preconditioned run in turn — including the preconditioned
// directions d̂ and ŝ — and demands exact convergence.
func TestBiCGStabPrecondRecoversEveryVector(t *testing.T) {
	a, b, want := asymmetricHard(1000)
	for _, vec := range []string{"x", "g", "q", "d0", "d1", "s", "t", "dh", "sh"} {
		cfg := precondCfg(MethodFEIR)
		sv, err := NewBiCGStab(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.OnIteration = func(it int, rel float64) {
			if it == 5 {
				sv.Space().VectorByName(vec).Poison(3)
			}
		}
		sv.cfg = cfg2
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

// TestGMRESPrecondRecoversZ poisons the protected preconditioned
// residual (and the x/g pair and basis) of the preconditioned GMRES.
func TestGMRESPrecondRecoversZ(t *testing.T) {
	a, b, want := asymmetricHard(1000)
	for _, vec := range []string{"x", "g", "z", "v0", "v2", "v5"} {
		cfg := precondCfg(MethodFEIR)
		sv, err := NewGMRES(a, b, 20, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.OnIteration = func(it int, rel float64) {
			if it == 8 { // mid-cycle: several basis vectors alive
				sv.Space().VectorByName(vec).Poison(4)
			}
		}
		sv.cfg = cfg2
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
				t.Fatalf("error in %s: wrong solution", vec)
			}
		}
	}
}

// TestStormBiCGStabPrecond drives the preconditioned BiCGStab through
// DUE storms of 1–5 errors per run across every protected vector
// (including d̂/ŝ) for both recovery disciplines.
func TestStormBiCGStabPrecond(t *testing.T) {
	a, b, _ := asymmetricHard(1000)
	vectors := []string{"x", "g", "q", "d0", "d1", "s", "t", "dh", "sh"}
	base := runBiCGStabWithInjections(t, a, b, precondCfg(MethodFEIR), nil)
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		for rate := 1; rate <= 5; rate++ {
			seed := int64(5000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			inj := stormInjections(rng, vectors, 16, window, rate)
			res := runBiCGStabWithInjections(t, a, b, precondCfg(method), inj)
			if !res.Converged {
				t.Fatalf("%v rate %d: not converged: %+v", method, rate, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%v rate %d: true residual %v", method, rate, res.RelResidual)
			}
		}
	}
}

// TestStormGMRESPrecond is the storm campaign for the preconditioned
// GMRES, covering the z vector alongside the x/g pair and the basis.
func TestStormGMRESPrecond(t *testing.T) {
	a, b, _ := asymmetricHard(1000)
	vectors := []string{"x", "g", "z", "v0", "v1", "v3", "v7"}
	base := runGMRESWithInjections(t, a, b, 20, precondCfg(MethodFEIR), nil)
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		for rate := 1; rate <= 5; rate++ {
			seed := int64(7000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			inj := stormInjections(rng, vectors, 16, window, rate)
			res := runGMRESWithInjections(t, a, b, 20, precondCfg(method), inj)
			if !res.Converged {
				t.Fatalf("%v rate %d: not converged: %+v", method, rate, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%v rate %d: true residual %v", method, rate, res.RelResidual)
			}
		}
	}
}

// TestRhoBoundaryBreakdown pins the phase-3 breakdown guard: a zero NEW
// rho is a breakdown (it stalls the next iteration's α), not only a zero
// carried rho or omega — except when the residual has already converged.
func TestRhoBoundaryBreakdown(t *testing.T) {
	const bnorm, tol = 1.0, 1e-10
	cases := []struct {
		name               string
		rho, omega, rhoNew float64
		gg                 float64
		want               bool
	}{
		{"healthy", 1, 0.5, 0.8, 1, false},
		{"staleRhoZero", 0, 0.5, 0.8, 1, true},
		{"omegaZero", 1, 0, 0.8, 1, true},
		{"rhoNewZeroUnconverged", 1, 0.5, 0, 1, true},
		{"rhoNewZeroConverged", 1, 0.5, 0, 1e-30, false},
		{"rhoNewNaN", 1, 0.5, math.NaN(), 1, true},
	}
	for _, c := range cases {
		if got := rhoBoundaryBreakdown(c.rho, c.omega, c.rhoNew, c.gg, bnorm, tol); got != c.want {
			t.Errorf("%s: rhoBoundaryBreakdown = %v, want %v", c.name, got, c.want)
		}
	}
}
