package registry

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// testSystem builds an SPD system with cross-page coupling (so
// block-Jacobi preconditioning genuinely helps) and its exact solution.
func testSystem(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	a := matgen.Poisson2D(30, 30)
	b := matgen.Ones(a.N)
	return a, b
}

func testCfg(precond bool, ranks int) Config {
	return Config{
		Config: core.Config{
			Method:      core.MethodFEIR,
			PageDoubles: 64,
			Tol:         1e-10,
			MaxIter:     20000,
			UsePrecond:  precond,
		},
		Ranks: ranks,
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("expected at least the three built-ins, got %v", names)
	}
	for _, want := range []string{"bicgstab", "cg", "gmres"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
}

func TestUnknownSolverError(t *testing.T) {
	a, b := testSystem(t)
	_, err := New("no-such-method", a, b, testCfg(false, 0))
	if err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("want unknown-solver error, got %v", err)
	}
}

// TestAllVariantsDispatch runs every registered method through all four
// topology × preconditioning combinations: each must converge, and the
// preconditioned run must take strictly fewer iterations than its
// unpreconditioned counterpart — the regression test for the PR-3 bug
// where -precond was silently dropped outside single-node CG. Only cg has
// a distributed variant; a ranked bicgstab or gmres is refused by name
// before anything is built.
func TestAllVariantsDispatch(t *testing.T) {
	a, b := testSystem(t)
	for _, solver := range []string{"cg", "bicgstab", "gmres"} {
		for _, ranks := range []int{0, 2} {
			iters := map[bool]int{}
			for _, precond := range []bool{false, true} {
				inst, err := New(solver, a, b, testCfg(precond, ranks))
				if ranks > 0 && solver != "cg" {
					want := fmt.Sprintf("solver %q has no distributed variant (drop -ranks)", solver)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("%s ranks=%d precond=%v: %v, want an error containing %q", solver, ranks, precond, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s ranks=%d precond=%v: %v", solver, ranks, precond, err)
				}
				res, err := inst.Run()
				if err != nil {
					t.Fatalf("%s ranks=%d precond=%v: %v", solver, ranks, precond, err)
				}
				if !res.Converged {
					t.Fatalf("%s ranks=%d precond=%v: not converged: %+v", solver, ranks, precond, res)
				}
				if res.RelResidual > 1e-8 {
					t.Fatalf("%s ranks=%d precond=%v: residual %v", solver, ranks, precond, res.RelResidual)
				}
				if (inst.RankStats != nil) != (ranks > 0) {
					t.Fatalf("%s ranks=%d precond=%v: RankStats set = %v", solver, ranks, precond, inst.RankStats != nil)
				}
				iters[precond] = res.Iterations
			}
			if len(iters) > 0 && iters[true] >= iters[false] {
				t.Fatalf("%s ranks=%d: preconditioned run not faster (%d vs %d iterations) — -precond silently dropped?",
					solver, ranks, iters[true], iters[false])
			}
		}
	}
}

// TestCheckpointDefaultAcrossTopologies: with neither an interval nor an
// MTBE configured, a Checkpoint cg solve snapshots at the one default
// period on one node and on ranks (it was 1000 iterations and 100).
func TestCheckpointDefaultAcrossTopologies(t *testing.T) {
	a := matgen.Poisson2D(64, 64)
	b := matgen.Ones(a.N)
	written := map[int]int{}
	for _, ranks := range []int{0, 2} {
		cfg := testCfg(false, ranks)
		cfg.Method = core.MethodCheckpoint
		inst, err := New("cg", a, b, cfg)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		res, err := inst.Run()
		if err != nil || !res.Converged {
			t.Fatalf("ranks=%d: %+v err=%v", ranks, res, err)
		}
		if res.Iterations <= 100 || res.Iterations >= 1000 {
			t.Fatalf("ranks=%d: %d iterations, want a solve between the two periods", ranks, res.Iterations)
		}
		written[ranks] = res.Stats.CheckpointsWritten
	}
	if written[0] != written[2] {
		t.Fatalf("checkpoints written: %d on one node, %d on two ranks", written[0], written[2])
	}
}

// TestCapabilityRejection keeps the never-drop-a-config contract as a
// regression test: a builder that does not declare a capability must be
// rejected with an error naming the solver, not run without it.
func TestCapabilityRejection(t *testing.T) {
	name := "limited-test-solver"
	t.Cleanup(func() { delete(builders, name) })
	Register(name, Capabilities{}, func(a *sparse.CSR, b []float64, cfg Config) (*Instance, error) {
		t.Fatal("builder must not run for a rejected configuration")
		return nil, nil
	})
	a, b := testSystem(t)
	if _, err := New(name, a, b, testCfg(true, 0)); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("UsePrecond not rejected: %v", err)
	}
	if _, err := New(name, a, b, testCfg(false, 2)); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Ranks not rejected: %v", err)
	}
	if _, ok := Caps(name); !ok {
		t.Fatal("capabilities not recorded")
	}
}

// TestBuiltinsDeclareFullCapabilities pins the registry's built-in
// surface: exactly cg, bicgstab and gmres, each dispatching -precond, and
// cg alone -ranks (and -abft), a ranked bicgstab or gmres answering the
// named no-distributed-variant error; any other name — pipecg and cacg
// are the two a caller may still send — answers the unknown-solver error
// listing what is registered.
func TestBuiltinsDeclareFullCapabilities(t *testing.T) {
	builtins := []string{"bicgstab", "cg", "gmres"}
	if names := Names(); !slices.Equal(names, builtins) {
		t.Fatalf("Names() = %v, want exactly %v", names, builtins)
	}
	wantCaps := map[string]Capabilities{
		"cg":       {Precond: true, Distributed: true, ABFT: true},
		"bicgstab": {Precond: true},
		"gmres":    {Precond: true},
	}
	for _, solver := range builtins {
		caps, ok := Caps(solver)
		if !ok {
			t.Fatalf("%s not registered", solver)
		}
		if caps != wantCaps[solver] {
			t.Fatalf("%s caps = %+v, want %+v", solver, caps, wantCaps[solver])
		}
	}
	a, b := testSystem(t)
	for _, solver := range []string{"bicgstab", "gmres"} {
		want := fmt.Sprintf("registry: solver %q has no distributed variant (drop -ranks)", solver)
		if _, err := New(solver, a, b, testCfg(false, 2)); err == nil || err.Error() != want {
			t.Fatalf("New(%q, ranks 2) = %v, want %q", solver, err, want)
		}
	}
	for _, gone := range []string{"pipecg", "cacg"} {
		want := fmt.Sprintf("unknown solver %q (have %v)", gone, builtins)
		if _, err := New(gone, a, b, testCfg(false, 2)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("New(%q) = %v, want an error containing %q", gone, err, want)
		}
	}
}
