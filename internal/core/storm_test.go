package core

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// Storm tests: randomized multi-error campaigns driven by seeds, checking
// the end-to-end invariant of exact forward recovery — every run either
// converges with a verified true residual, or reports its damage honestly
// through the statistics. These are the property-style integration tests
// over the whole recovery machinery.

// stormInjections builds a random iteration-indexed injection schedule.
func stormInjections(rng *rand.Rand, vectors []string, pages, maxIter, count int) []injection {
	inj := make([]injection, count)
	for i := range inj {
		inj[i] = injection{
			it:   1 + rng.Intn(maxIter),
			vec:  vectors[rng.Intn(len(vectors))],
			page: rng.Intn(pages),
		}
	}
	return inj
}

func TestStormFEIRRandomErrors(t *testing.T) {
	a, b := testSystem()
	base := idealIterations(t, a, b)
	vectors := []string{"x", "g", "q", "d0", "d1"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inj := stormInjections(rng, vectors, 25, base, 5)
		res := runWithInjections(t, a, b, testConfig(MethodFEIR), inj)
		if !res.Converged {
			t.Fatalf("seed %d: not converged: %+v", seed, res)
		}
		if res.RelResidual > 1e-8 {
			t.Fatalf("seed %d: true residual %v", seed, res.RelResidual)
		}
		// Exact recovery: unless errors hit related data simultaneously
		// (possible but rare here), iteration counts stay close to ideal.
		if res.Stats.Unrecovered == 0 && res.Stats.Restarts == 0 {
			if d := res.Iterations - base; d < -3 || d > 3 {
				t.Fatalf("seed %d: %d iterations vs ideal %d with full recovery (%+v)",
					seed, res.Iterations, base, res.Stats)
			}
		}
	}
}

func TestStormAFEIRRandomErrors(t *testing.T) {
	a, b := testSystem()
	vectors := []string{"x", "g", "q", "d0", "d1"}
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inj := stormInjections(rng, vectors, 25, 150, 6)
		res := runWithInjections(t, a, b, testConfig(MethodAFEIR), inj)
		if !res.Converged {
			t.Fatalf("seed %d: not converged: %+v", seed, res)
		}
		if res.RelResidual > 1e-8 {
			t.Fatalf("seed %d: true residual %v", seed, res.RelResidual)
		}
	}
}

func TestStormPreconditionedFEIR(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodFEIR)
	cfg.UsePrecond = true
	vectors := []string{"x", "g", "q", "d0", "d1", "z"}
	for seed := int64(200); seed < 204; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inj := stormInjections(rng, vectors, 25, 100, 4)
		res := runWithInjections(t, a, b, cfg, inj)
		if !res.Converged || res.RelResidual > 1e-8 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestStormLossyAndCheckpointSurvive(t *testing.T) {
	a, b := testSystem()
	for seed := int64(300); seed < 303; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inj := stormInjections(rng, []string{"x", "g", "d0"}, 25, 120, 3)

		res := runWithInjections(t, a, b, testConfig(MethodLossy), inj)
		if !res.Converged || res.RelResidual > 1e-8 {
			t.Fatalf("lossy seed %d: %+v", seed, res)
		}

		cfg := testConfig(MethodCheckpoint)
		cfg.CheckpointInterval = 40
		cfg.Disk = NewSimDisk(1e9)
		res = runWithInjections(t, a, b, cfg, inj)
		if !res.Converged || res.RelResidual > 1e-8 {
			t.Fatalf("ckpt seed %d: %+v", seed, res)
		}
	}
}

func TestStormBurstSameIteration(t *testing.T) {
	// Many errors in a single iteration, spread across vectors and pages:
	// exercises coupled recoveries and fixpoint passes together.
	a, b := testSystem()
	inj := []injection{
		{it: 30, vec: "x", page: 3},
		{it: 30, vec: "x", page: 4},
		{it: 30, vec: "g", page: 10},
		{it: 30, vec: "q", page: 15},
		{it: 30, vec: "d0", page: 20},
		{it: 30, vec: "d1", page: 21},
	}
	res := runWithInjections(t, a, b, testConfig(MethodFEIR), inj)
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("burst: %+v", res)
	}
}

func TestStormEveryPageOfXOverTime(t *testing.T) {
	// Lose a different iterate page every few iterations: CG must still
	// converge exactly (x recovery is exact as long as g is intact).
	a, b := testSystem()
	base := idealIterations(t, a, b)
	var inj []injection
	for p := 0; p < 20; p++ {
		inj = append(inj, injection{it: 5 + 4*p, vec: "x", page: p})
	}
	res := runWithInjections(t, a, b, testConfig(MethodFEIR), inj)
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	if res.Stats.RecoveredInverse < 15 {
		t.Fatalf("expected many inverse recoveries: %+v", res.Stats)
	}
	if d := res.Iterations - base; d < -3 || d > 3 {
		t.Fatalf("%d iterations vs ideal %d", res.Iterations, base)
	}
}

// runBiCGStabWithInjections runs a resilient BiCGStab with scripted
// page poisons at iteration starts.
func runBiCGStabWithInjections(t *testing.T, a *sparse.CSR, b []float64, cfg Config, inj []injection) Result {
	t.Helper()
	sv, err := NewBiCGStab(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.OnIteration = poisonAt(t, sv.Space(), inj, cfg.OnIteration)
	sv.cfg = cfg2
	res, _, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runGMRESWithInjections does the same for the resilient GMRES(m).
func runGMRESWithInjections(t *testing.T, a *sparse.CSR, b []float64, restart int, cfg Config, inj []injection) Result {
	t.Helper()
	sv, err := NewGMRES(a, b, restart, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.OnIteration = poisonAt(t, sv.Space(), inj, cfg.OnIteration)
	sv.cfg = cfg2
	res, _, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stormSystem is the nonsymmetric test system shared by the BiCGStab and
// GMRES storms: 1000 unknowns over 16 pages of 64 doubles.
func stormSystem() (*sparse.CSR, []float64, int) {
	a, b, _ := asymmetric(1000)
	return a, b, 16
}

// relatedLoss loses x and g on one page at iteration 12: §2.4's case 2,
// which every solver resolves with the Lossy step.
var relatedLoss = []injection{{it: 12, vec: "x", page: 4}, {it: 12, vec: "g", page: 4}}

// TestStormBiCGStabRandomErrors drives the task-parallel BiCGStab through
// DUE storms of 1–5 errors per run, for both recovery disciplines: every
// run must converge with a verified true residual. A row that loses x and
// g on one page must take the Lossy step.
func TestStormBiCGStabRandomErrors(t *testing.T) {
	a, b, pages := stormSystem()
	base := runBiCGStabWithInjections(t, a, b, bicgCfg(), nil)
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	vectors := []string{"x", "g", "q", "d0", "d1", "s", "t"}
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		cfg := bicgCfg()
		cfg.Method = method
		checkInterpolated(t, runBiCGStabWithInjections(t, a, b, cfg, relatedLoss))
		for rate := 1; rate <= 5; rate++ {
			seed := int64(1000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			inj := stormInjections(rng, vectors, pages, window, rate)
			cfg := bicgCfg()
			cfg.Method = method
			res := runBiCGStabWithInjections(t, a, b, cfg, inj)
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

// TestStormBiCGStabBurst throws simultaneous errors across related
// vectors in one iteration: the run must still terminate correctly
// (restart fallback at worst).
func TestStormBiCGStabBurst(t *testing.T) {
	a, b, _ := stormSystem()
	inj := []injection{
		{it: 12, vec: "x", page: 3},
		{it: 12, vec: "g", page: 3},
		{it: 12, vec: "d0", page: 7},
		{it: 12, vec: "q", page: 9},
	}
	cfg := bicgCfg()
	res := runBiCGStabWithInjections(t, a, b, cfg, inj)
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("burst: %+v", res)
	}
}

// TestStormGMRESRandomErrors drives the task-parallel GMRES through DUE
// storms of 1–5 errors per run for both disciplines, and through the loss
// of x and g on one page, which must take the Lossy step.
func TestStormGMRESRandomErrors(t *testing.T) {
	a, b, pages := stormSystem()
	base := runGMRESWithInjections(t, a, b, 20, bicgCfg(), nil)
	window := base.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", base)
	}
	vectors := []string{"x", "g", "v0", "v1", "v3", "v7"}
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		cfg := bicgCfg()
		cfg.Method = method
		checkInterpolated(t, runGMRESWithInjections(t, a, b, 20, cfg, relatedLoss))
		for rate := 1; rate <= 5; rate++ {
			seed := int64(2000*int(method) + rate)
			rng := rand.New(rand.NewSource(seed))
			inj := stormInjections(rng, vectors, pages, window, rate)
			cfg := bicgCfg()
			cfg.Method = method
			res := runGMRESWithInjections(t, a, b, 20, cfg, inj)
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

func TestStormRepeatedSamePage(t *testing.T) {
	// The same page dying over and over must not accumulate damage.
	a, b := testSystem()
	var inj []injection
	for k := 0; k < 10; k++ {
		inj = append(inj, injection{it: 10 + 6*k, vec: "g", page: 7})
	}
	res := runWithInjections(t, a, b, testConfig(MethodAFEIR), inj)
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("%+v", res)
	}
	if res.Stats.RecoveredForward < 8 {
		t.Fatalf("expected repeated forward recoveries: %+v", res.Stats)
	}
}

// TestPCGPhase2FusedWaveRecovers: preconditioned phase 2 is one wave — a
// page's g update, its block solve and its <z,g> partial run back to back
// in one task, where three task sets with all-to-all dependencies used to.
// Lose g, z and q of one page, one at a time and all three in the same
// iteration: the wave must skip exactly what it cannot compute, and r2/r3
// rebuild z by partial application (§3.2) without costing iterations.
func TestPCGPhase2FusedWaveRecovers(t *testing.T) {
	a, b := testSystem()
	for _, m := range []Method{MethodFEIR, MethodAFEIR} {
		cfg := testConfig(m)
		cfg.UsePrecond = true
		clean := runWithInjections(t, a, b, cfg, nil)
		if !clean.Converged || clean.Stats.FaultsSeen != 0 {
			t.Fatalf("%v clean: %+v", m, clean)
		}
		for _, vecs := range [][]string{{"g"}, {"z"}, {"q"}, {"g", "z", "q"}} {
			var inj []injection
			for _, v := range vecs {
				inj = append(inj, injection{it: 9, vec: v, page: 11})
			}
			res := runWithInjections(t, a, b, cfg, inj)
			if !res.Converged || res.RelResidual > 1e-8 || res.Stats.Unrecovered != 0 {
				t.Fatalf("%v lost %v: %+v", m, vecs, res)
			}
			if lostZ := len(vecs) == 3 || vecs[0] == "z"; lostZ && res.Stats.PrecondPartialApplies == 0 {
				t.Errorf("%v lost %v: no partial preconditioner application, stats %+v", m, vecs, res.Stats)
			}
			if d := res.Iterations - clean.Iterations; d < -3 || d > 3 {
				t.Errorf("%v lost %v: %d iterations vs clean %d", m, vecs, res.Iterations, clean.Iterations)
			}
		}
	}
}
