package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func precondCfg(m core.Method) Config {
	cfg := baseCfg(m)
	cfg.UsePrecond = true
	return cfg
}

// spdDist builds an SPD system with cross-page coupling for the
// preconditioned distributed CG.
func spdDist() (*sparse.CSR, []float64) {
	a := matgen.Poisson2D(32, 32)
	return a, matgen.Ones(a.N)
}

// TestDistPrecondFewerIterations pins the distributed -precond contract
// for all three solvers: preconditioned runs converge in strictly fewer
// iterations than unpreconditioned ones on the same shards.
func TestDistPrecondFewerIterations(t *testing.T) {
	type launch func(precond bool) (core.Result, error)
	aSPD, bSPD := spdDist()
	aG, bG := asymmetricDist(1000)
	cases := []struct {
		name string
		run  launch
	}{
		{"cg", func(precond bool) (core.Result, error) {
			cfg := baseCfg(core.MethodFEIR)
			cfg.UsePrecond = precond
			res, _, err := SolveCG(aSPD, bSPD, 4, cfg)
			return res, err
		}},
		{"bicgstab", func(precond bool) (core.Result, error) {
			cfg := baseCfg(core.MethodFEIR)
			cfg.UsePrecond = precond
			res, _, err := SolveBiCGStab(aG, bG, 4, cfg)
			return res, err
		}},
		{"gmres", func(precond bool) (core.Result, error) {
			cfg := baseCfg(core.MethodFEIR)
			cfg.UsePrecond = precond
			res, _, err := SolveGMRES(aG, bG, 4, 20, cfg)
			return res, err
		}},
	}
	for _, c := range cases {
		iters := map[bool]int{}
		for _, precond := range []bool{false, true} {
			res, err := c.run(precond)
			if err != nil {
				t.Fatalf("%s precond=%v: %v", c.name, precond, err)
			}
			if !res.Converged {
				t.Fatalf("%s precond=%v: not converged: %+v", c.name, precond, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%s precond=%v: residual %v", c.name, precond, res.RelResidual)
			}
			iters[precond] = res.Iterations
		}
		if iters[true] >= iters[false] {
			t.Fatalf("%s: preconditioned run not faster (%d vs %d iterations)", c.name, iters[true], iters[false])
		}
	}
}

// TestDistStormPrecondCG storms the preconditioned distributed CG across
// every protected vector, including the preconditioned residual z.
func TestDistStormPrecondCG(t *testing.T) {
	a, b := spdDist()
	base, _, err := SolveCG(a, b, 4, precondCfg(core.MethodFEIR))
	if err != nil || !base.Converged {
		t.Fatalf("fault-free run: %+v err=%v", base, err)
	}
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	vectors := []string{"x", "g", "d", "q", "z"}
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		for rate := 1; rate <= 5; rate++ {
			seed := int64(3000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			res, _, err := injected(injectOwned(stormSchedule(rng, vectors, window, rate)))(NewCG(a, b, 4, precondCfg(method)))
			if err != nil {
				t.Fatalf("%v rate %d: %v", method, rate, err)
			}
			if !res.Converged {
				t.Fatalf("%v rate %d: not converged: %+v", method, rate, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%v rate %d: true residual %v", method, rate, res.RelResidual)
			}
			if res.Stats.FaultsSeen == 0 {
				t.Fatalf("%v rate %d: no faults seen", method, rate)
			}
		}
	}
}

// TestDistStormPrecondBiCGStab storms the preconditioned distributed
// BiCGStab, covering d̂/ŝ alongside the carried vectors.
func TestDistStormPrecondBiCGStab(t *testing.T) {
	a, b := asymmetricDist(1000)
	base, _, err := SolveBiCGStab(a, b, 4, precondCfg(core.MethodFEIR))
	if err != nil || !base.Converged {
		t.Fatalf("fault-free run: %+v err=%v", base, err)
	}
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	vectors := []string{"x", "g", "d", "q", "s", "t", "dh", "sh"}
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		for rate := 1; rate <= 5; rate++ {
			seed := int64(4000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			res, _, err := injected(injectOwned(stormSchedule(rng, vectors, window, rate)))(NewBiCGStab(a, b, 4, precondCfg(method)))
			if err != nil {
				t.Fatalf("%v rate %d: %v", method, rate, err)
			}
			if !res.Converged {
				t.Fatalf("%v rate %d: not converged: %+v", method, rate, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%v rate %d: true residual %v", method, rate, res.RelResidual)
			}
			if res.Stats.FaultsSeen == 0 {
				t.Fatalf("%v rate %d: no faults seen", method, rate)
			}
		}
	}
}

// TestDistStormPrecondGMRES storms the preconditioned distributed GMRES,
// covering z alongside the x/g pair and the basis.
func TestDistStormPrecondGMRES(t *testing.T) {
	a, b := asymmetricDist(1000)
	base, _, err := SolveGMRES(a, b, 4, 20, precondCfg(core.MethodFEIR))
	if err != nil || !base.Converged {
		t.Fatalf("fault-free run: %+v err=%v", base, err)
	}
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	vectors := []string{"x", "g", "z", "v0", "v1", "v3", "v7"}
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		for rate := 1; rate <= 5; rate++ {
			seed := int64(6000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			res, _, err := injected(injectOwned(stormSchedule(rng, vectors, window, rate)))(NewGMRES(a, b, 4, 20, precondCfg(method)))
			if err != nil {
				t.Fatalf("%v rate %d: %v", method, rate, err)
			}
			if !res.Converged {
				t.Fatalf("%v rate %d: not converged: %+v", method, rate, res)
			}
			if res.RelResidual > 1e-8 {
				t.Fatalf("%v rate %d: true residual %v", method, rate, res.RelResidual)
			}
			if res.Stats.FaultsSeen == 0 {
				t.Fatalf("%v rate %d: no faults seen", method, rate)
			}
		}
	}
}
