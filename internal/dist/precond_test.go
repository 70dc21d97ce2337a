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

// TestDistPrecondFewerIterations pins the distributed -precond contract:
// preconditioned runs converge in strictly fewer iterations than
// unpreconditioned ones on the same shards.
func TestDistPrecondFewerIterations(t *testing.T) {
	a, b := spdDist()
	iters := map[bool]int{}
	for _, precond := range []bool{false, true} {
		cfg := baseCfg(core.MethodFEIR)
		cfg.UsePrecond = precond
		res, _, err := SolveCG(a, b, 4, cfg)
		if err != nil {
			t.Fatalf("precond=%v: %v", precond, err)
		}
		if !res.Converged {
			t.Fatalf("precond=%v: not converged: %+v", precond, res)
		}
		if res.RelResidual > 1e-8 {
			t.Fatalf("precond=%v: residual %v", precond, res.RelResidual)
		}
		iters[precond] = res.Iterations
	}
	if iters[true] >= iters[false] {
		t.Fatalf("preconditioned run not faster (%d vs %d iterations)", iters[true], iters[false])
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
