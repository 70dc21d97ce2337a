package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/pagemem"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// testConfig returns the standard test configuration: a page size of 64
// doubles so a 1600-element system spans 25 pages.
func testConfig(method Method) Config {
	return Config{
		Method:      method,
		Workers:     4,
		PageDoubles: 64,
		Tol:         1e-10,
		MaxIter:     20000,
	}
}

func testSystem() (*sparse.CSR, []float64) {
	a := matgen.Poisson2D(40, 40) // n = 1600, 25 pages of 64
	b := matgen.RandomVector(a.N, 42)
	return a, b
}

// runWithInjections runs a solver injecting pages listed as (iteration,
// vector name, page) triples at iteration starts.
type injection struct {
	it   int
	vec  string
	page int
}

// poisonAt builds an OnIteration hook firing the scripted poisons at
// their iteration numbers, chaining an optional previous hook. Shared by
// the CG, BiCGStab and GMRES injection runners.
func poisonAt(t *testing.T, space *pagemem.Space, inj []injection, prev func(int, float64)) func(int, float64) {
	return func(it int, rel float64) {
		for _, e := range inj {
			if e.it == it {
				v := space.VectorByName(e.vec)
				if v == nil {
					t.Errorf("no vector %q", e.vec)
					continue
				}
				v.Poison(e.page)
			}
		}
		if prev != nil {
			prev(it, rel)
		}
	}
}

func runWithInjections(t *testing.T, a *sparse.CSR, b []float64, cfg Config, inj []injection) Result {
	t.Helper()
	cg, err := NewCG(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.OnIteration = poisonAt(t, cg.Space(), inj, cfg.OnIteration)
	cg.cfg = cfg2 // NewCG copied cfg by value
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdealMatchesSequentialCG(t *testing.T) {
	a, b := testSystem()
	cg, err := NewCG(a, b, testConfig(MethodIdeal))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ideal CG did not converge: %+v", res)
	}
	x := make([]float64, a.N)
	seq, err := solver.CG(a, b, x, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Iterations - seq.Iterations; d < -2 || d > 2 {
		t.Fatalf("ideal %d vs sequential %d iterations", res.Iterations, seq.Iterations)
	}
	if res.RelResidual > 1e-9 {
		t.Fatalf("true residual %v", res.RelResidual)
	}
}

func TestResilientNoErrorsMatchesIdeal(t *testing.T) {
	a, b := testSystem()
	ideal, err := NewCG(a, b, testConfig(MethodIdeal))
	if err != nil {
		t.Fatal(err)
	}
	resIdeal, err := ideal.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodFEIR, MethodAFEIR} {
		cg, err := NewCG(a, b, testConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cg.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", m)
		}
		if d := res.Iterations - resIdeal.Iterations; d < -2 || d > 2 {
			t.Fatalf("%v %d vs ideal %d iterations", m, res.Iterations, resIdeal.Iterations)
		}
		if res.Stats.FaultsSeen != 0 || res.Stats.Unrecovered != 0 {
			t.Fatalf("%v phantom faults: %+v", m, res.Stats)
		}
	}
}

// idealIterations caches the fault-free iteration count for comparison.
func idealIterations(t *testing.T, a *sparse.CSR, b []float64) int {
	t.Helper()
	cg, err := NewCG(a, b, testConfig(MethodIdeal))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Iterations
}

func TestFEIRRecoversErrorsInEveryVector(t *testing.T) {
	a, b := testSystem()
	base := idealIterations(t, a, b)
	for _, vec := range []string{"x", "g", "q", "d0", "d1"} {
		res := runWithInjections(t, a, b, testConfig(MethodFEIR), []injection{
			{it: 20, vec: vec, page: 7},
		})
		if !res.Converged {
			t.Fatalf("FEIR with error in %s did not converge", vec)
		}
		// Exact forward recovery must preserve the convergence rate
		// (§2.3: "guarantee the same convergence rate as when the
		// algorithm is not subject to faults").
		if d := res.Iterations - base; d < -2 || d > 2 {
			t.Fatalf("error in %s: %d iterations vs ideal %d", vec, res.Iterations, base)
		}
		if res.Stats.FaultsSeen == 0 {
			t.Fatalf("error in %s never became visible", vec)
		}
		if res.Stats.Unrecovered > 0 {
			t.Fatalf("error in %s left %d unrecovered pages", vec, res.Stats.Unrecovered)
		}
	}
}

func TestAFEIRRecoversErrorsInEveryVector(t *testing.T) {
	a, b := testSystem()
	base := idealIterations(t, a, b)
	for _, vec := range []string{"x", "g", "q", "d0", "d1"} {
		res := runWithInjections(t, a, b, testConfig(MethodAFEIR), []injection{
			{it: 15, vec: vec, page: 3},
			{it: 40, vec: vec, page: 11},
		})
		if !res.Converged {
			t.Fatalf("AFEIR with errors in %s did not converge", vec)
		}
		if d := res.Iterations - base; d < -2 || d > 2 {
			t.Fatalf("errors in %s: %d iterations vs ideal %d", vec, res.Iterations, base)
		}
	}
}

func TestFEIRExactRecoveryCounters(t *testing.T) {
	a, b := testSystem()
	// Error in x forces an inverse recovery; error in g a forward one.
	res := runWithInjections(t, a, b, testConfig(MethodFEIR), []injection{
		{it: 10, vec: "x", page: 5},
		{it: 30, vec: "g", page: 9},
	})
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Stats.RecoveredInverse == 0 {
		t.Fatalf("expected inverse recovery for x, stats %+v", res.Stats)
	}
	if res.Stats.RecoveredForward == 0 {
		t.Fatalf("expected forward recovery for g, stats %+v", res.Stats)
	}
}

// TestFEIRMultipleErrorsSameVectorCoupled: several connected pages of one
// vector lost together defeat the single-page inverse relation (each
// page's neighbour is lost too), so §2.4's combined block system must
// rebuild them — exactly, at the fault-free iteration count. Three x
// pages are repaired at the iterate's current version; two or three
// pages of the OLD direction (the buffer the d-update reads, lost at an
// iteration boundary) are repaired at the previous version through the
// old q the double buffering preserves, at both buffer parities.
func TestFEIRMultipleErrorsSameVectorCoupled(t *testing.T) {
	a, b := testSystem()
	losses := []struct {
		name  string
		it    int
		vec   string
		pages []int
	}{
		{"x-6..8", 25, "x", []int{6, 7, 8}},
		{"dPrev-d1-6,7", 20, "d1", []int{6, 7}},
		{"dPrev-d0-6,7", 21, "d0", []int{6, 7}},
		{"dPrev-d1-6..8", 20, "d1", []int{6, 7, 8}},
		{"dPrev-d0-6..8", 21, "d0", []int{6, 7, 8}},
	}
	for _, pre := range []bool{false, true} {
		ideal := testConfig(MethodIdeal)
		ideal.UsePrecond = pre
		clean, err := NewCG(a, b, ideal)
		if err != nil {
			t.Fatal(err)
		}
		base, err := clean.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{MethodFEIR, MethodAFEIR} {
			for _, l := range losses {
				t.Run(fmt.Sprintf("%v/precond=%v/%s", m, pre, l.name), func(t *testing.T) {
					var inj []injection
					for _, p := range l.pages {
						inj = append(inj, injection{it: l.it, vec: l.vec, page: p})
					}
					cfg := testConfig(m)
					cfg.UsePrecond = pre
					res := runWithInjections(t, a, b, cfg, inj)
					if !res.Converged {
						t.Fatalf("not converged: %+v", res)
					}
					if d := res.Iterations - base.Iterations; d < -3 || d > 3 {
						t.Errorf("%d iterations vs ideal %d", res.Iterations, base.Iterations)
					}
					if res.Stats.RecoveredCoupled != len(l.pages) || res.Stats.Unrecovered != 0 {
						t.Errorf("want %d pages coupled and 0 unrecovered, stats %+v", len(l.pages), res.Stats)
					}
				})
			}
		}
	}
}

func TestFEIRRelatedDataErrorsIgnoredStillTerminates(t *testing.T) {
	a, b := testSystem()
	// x and g lost on the same page: §2.4 case 2 — unrecoverable by
	// relations. With FallbackIgnore the run must still terminate with a
	// correct answer (the consistency refresh re-derives g).
	cfg := testConfig(MethodFEIR)
	res := runWithInjections(t, a, b, cfg, []injection{
		{it: 12, vec: "x", page: 4},
		{it: 12, vec: "g", page: 4},
	})
	if !res.Converged {
		t.Fatalf("run did not terminate correctly: %+v", res)
	}
	if res.RelResidual > 1e-8 {
		t.Fatalf("true residual %v", res.RelResidual)
	}
	if res.Stats.Unrecovered == 0 {
		t.Fatalf("expected unrecovered pages, stats %+v", res.Stats)
	}
}

func TestFEIRFallbackLossy(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodFEIR)
	cfg.Fallback = FallbackLossy
	res := runWithInjections(t, a, b, cfg, []injection{
		{it: 12, vec: "x", page: 4},
		{it: 12, vec: "g", page: 4},
	})
	if !res.Converged {
		t.Fatalf("FallbackLossy run failed: %+v", res)
	}
	if res.Stats.Restarts == 0 {
		t.Fatalf("expected a lossy-fallback restart, stats %+v", res.Stats)
	}
	if res.RelResidual > 1e-8 {
		t.Fatalf("true residual %v", res.RelResidual)
	}
}

func TestPreconditionedFEIRRecovers(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodFEIR)
	cfg.UsePrecond = true
	cg, err := NewCG(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resIdeal, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resIdeal.Converged {
		t.Fatal("PCG-FEIR without errors did not converge")
	}
	for _, vec := range []string{"x", "g", "z", "q", "d0"} {
		res := runWithInjections(t, a, b, cfg, []injection{{it: 8, vec: vec, page: 2}})
		if !res.Converged {
			t.Fatalf("PCG-FEIR error in %s did not converge", vec)
		}
		if d := res.Iterations - resIdeal.Iterations; d < -2 || d > 2 {
			t.Fatalf("error in %s: %d vs %d iterations", vec, res.Iterations, resIdeal.Iterations)
		}
	}
}

func TestPreconditionedUsesPartialApplications(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodAFEIR)
	cfg.UsePrecond = true
	res := runWithInjections(t, a, b, cfg, []injection{{it: 10, vec: "z", page: 6}})
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Stats.PrecondPartialApplies == 0 {
		t.Fatalf("expected partial preconditioner applications, stats %+v", res.Stats)
	}
}

func TestTrivialSurvivesButDegrades(t *testing.T) {
	a, b := testSystem()
	base := idealIterations(t, a, b)
	cfg := testConfig(MethodTrivial)
	res := runWithInjections(t, a, b, cfg, []injection{{it: base / 2, vec: "x", page: 5}})
	if res.Iterations <= base {
		t.Fatalf("trivial recovery was free: %d vs ideal %d", res.Iterations, base)
	}
}

// TestNaNIterateNeverConverges: an iterate overwritten with NaN behind
// the recurrence's back leaves g converging while b - A x is all NaN; the
// true-residual check must refuse it, so Norm2 must keep the NaN, and end
// the solve with ErrNonFinite when the recurrence first claims
// convergence, not run on to MaxIter.
func TestNaNIterateNeverConverges(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodIdeal)
	cfg.MaxIter = 300
	cg, err := NewCG(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cg.SetOnIteration(func(it int, _ float64) {
		if it == 5 {
			sparse.Fill(cg.Space().VectorByName("x").Data, math.NaN())
		}
	})
	res, err := cg.Run()
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if res.Converged || res.Iterations >= cfg.MaxIter/2 {
		t.Fatalf("NaN iterate: converged=%v after %d of %d iterations", res.Converged, res.Iterations, cfg.MaxIter)
	}
}

func TestLossyRestartRecovers(t *testing.T) {
	a, b := testSystem()
	base := idealIterations(t, a, b)
	cfg := testConfig(MethodLossy)
	res := runWithInjections(t, a, b, cfg, []injection{{it: base / 2, vec: "x", page: 5}})
	if !res.Converged {
		t.Fatalf("lossy restart did not converge: %+v", res)
	}
	if res.Stats.LossyInterpolations == 0 || res.Stats.Restarts == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.RelResidual > 1e-8 {
		t.Fatalf("true residual %v", res.RelResidual)
	}
	// Restart harms superlinear convergence: more iterations than ideal.
	if res.Iterations < base {
		t.Fatalf("lossy restart faster than ideal? %d vs %d", res.Iterations, base)
	}
}

func TestLossyRestartErrorInNonIterateVector(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodLossy)
	res := runWithInjections(t, a, b, cfg, []injection{{it: 30, vec: "q", page: 2}})
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Stats.Restarts == 0 {
		t.Fatal("expected a restart")
	}
	if res.Stats.LossyInterpolations != 0 {
		t.Fatal("interpolation should only run for iterate pages")
	}
}

func TestCheckpointRollback(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodCheckpoint)
	cfg.CheckpointInterval = 50
	cfg.Disk = NewSimDisk(1e9) // fast disk to keep the test quick
	res := runWithInjections(t, a, b, cfg, []injection{{it: 60, vec: "x", page: 5}})
	if !res.Converged {
		t.Fatalf("checkpoint run did not converge: %+v", res)
	}
	if res.Stats.Rollbacks == 0 || res.Stats.CheckpointsWritten == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.RelResidual > 1e-8 {
		t.Fatalf("true residual %v", res.RelResidual)
	}
}

func TestCheckpointRollbackBeforeFirstCheckpointRestarts(t *testing.T) {
	a, b := testSystem()
	cfg := testConfig(MethodCheckpoint)
	cfg.CheckpointInterval = 1 << 30 // never write after iteration 0
	cfg.Disk = NewSimDisk(1e9)
	res := runWithInjections(t, a, b, cfg, []injection{{it: 10, vec: "g", page: 1}})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Stats.Rollbacks == 0 {
		t.Fatal("expected a rollback")
	}
}

func TestCheckpointAutoIntervalDaly(t *testing.T) {
	ck := newCheckpointer(NewSimDisk(30e6), 0, 10*time.Second, 100000)
	// C = 1.6MB/30MBps ≈ 53ms; Topt = sqrt(2*0.053*10) ≈ 1.03s.
	iv := ck.currentInterval(100, 1*time.Second) // 10ms per iteration
	if iv < 50 || iv > 250 {
		t.Fatalf("Daly interval = %d iterations, want ~103", iv)
	}
	// Fixed interval overrides.
	ck2 := newCheckpointer(NewSimDisk(30e6), 77, 10*time.Second, 100000)
	if ck2.currentInterval(100, time.Second) != 77 {
		t.Fatal("fixed interval ignored")
	}
	// No MTBE information: the paper's default period.
	ck3 := newCheckpointer(NewSimDisk(30e6), 0, 0, 100000)
	if ck3.currentInterval(100, time.Second) != 1000 {
		t.Fatal("default interval wrong")
	}
}

func TestExactRecoveryPreservesIterates(t *testing.T) {
	// The strongest exactness property: a FEIR run with an injected error
	// must converge to the same solution as the fault-free run, to
	// near-machine precision, because replacement data is exact.
	a, b := testSystem()
	ideal, err := NewCG(a, b, testConfig(MethodIdeal))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ideal.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(MethodFEIR)
	cg, err := NewCG(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cgCfg := cfg
	cgCfg.OnIteration = func(it int, rel float64) {
		if it == 25 {
			cg.Space().VectorByName("g").Poison(8)
		}
	}
	cg, err = NewCG(a, b, cgCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	var maxDiff float64
	for i := range ideal.x.Data {
		if d := math.Abs(ideal.x.Data[i] - cg.x.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("solutions diverged by %v after exact recovery", maxDiff)
	}
}

func TestWorkerTimesPopulated(t *testing.T) {
	a, b := testSystem()
	cg, err := NewCG(a, b, testConfig(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorkerTimes) != 4 {
		t.Fatalf("worker times for %d workers", len(res.WorkerTimes))
	}
	var useful time.Duration
	for _, w := range res.WorkerTimes {
		useful += w.Useful
	}
	if useful == 0 {
		t.Fatal("no useful time recorded")
	}
}

func TestDynamicVectorsList(t *testing.T) {
	a, b := testSystem()
	cg, err := NewCG(a, b, testConfig(MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, v := range cg.DynamicVectors() {
		names[v.Name()] = true
	}
	for _, want := range []string{"x", "g", "q", "d0", "d1"} {
		if !names[want] {
			t.Fatalf("missing dynamic vector %s", want)
		}
	}
	// Plain methods have a single direction buffer.
	cg2, err := NewCG(a, b, testConfig(MethodTrivial))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cg2.DynamicVectors() {
		if v.Name() == "d1" {
			t.Fatal("plain method should not expose d1")
		}
	}
}

func TestNewCGValidation(t *testing.T) {
	a, b := testSystem()
	if _, err := NewCG(a, b[:10], testConfig(MethodIdeal)); err == nil {
		t.Fatal("accepted wrong rhs length")
	}
	rect := sparse.NewCSRFromTriplets(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := NewCG(rect, []float64{1, 2}, testConfig(MethodIdeal)); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		MethodIdeal: "Ideal", MethodTrivial: "Trivial", MethodLossy: "Lossy",
		MethodCheckpoint: "ckpt", MethodFEIR: "FEIR", MethodAFEIR: "AFEIR",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method string empty")
	}
}

// TestParseMethodRoundTrip: every method parses back from its lower-cased
// name, "" and "checkpoint" are Ideal and ckpt, and an unknown name is an
// error.
func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range append([]Method{MethodIdeal}, Methods...) {
		if got, err := ParseMethod(strings.ToLower(m.String())); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", strings.ToLower(m.String()), got, err, m)
		}
	}
	for name, want := range map[string]Method{"": MethodIdeal, "checkpoint": MethodCheckpoint, "AFEIR": MethodAFEIR} {
		if got, err := ParseMethod(name); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMethod("nosuch"); err == nil {
		t.Error(`ParseMethod("nosuch") accepted`)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{FaultsSeen: 1, RecoveredForward: 2, Rollbacks: 3}
	b := Stats{FaultsSeen: 10, RecoveredInverse: 5, Restarts: 7}
	a.Add(b)
	if a.FaultsSeen != 11 || a.RecoveredForward != 2 || a.RecoveredInverse != 5 || a.Rollbacks != 3 || a.Restarts != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestOnDemandRecoveryNoErrors(t *testing.T) {
	// §7's proposed runtime support, now the only schedule: with no errors,
	// recovery tasks are never instantiated and the solve converges as the
	// always-on variant did.
	a, b := testSystem()
	for _, m := range []Method{MethodFEIR, MethodAFEIR} {
		cg, err := NewCG(a, b, testConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cg.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.RelResidual > 1e-9 {
			t.Fatalf("%v on-demand: %+v", m, res)
		}
	}
}

func TestOnDemandRecoveryStillRecovers(t *testing.T) {
	// Recovery submitted only after a DUE still repairs scripted losses.
	a, b := testSystem()
	base := idealIterations(t, a, b)
	for _, m := range []Method{MethodFEIR, MethodAFEIR} {
		res := runWithInjections(t, a, b, testConfig(m), []injection{
			{it: 20, vec: "x", page: 7},
			{it: 45, vec: "g", page: 12},
		})
		if !res.Converged || res.RelResidual > 1e-8 {
			t.Fatalf("%v on-demand with errors: %+v", m, res)
		}
		if d := res.Iterations - base; d < -2 || d > 2 {
			t.Fatalf("%v on-demand: %d vs ideal %d iterations", m, res.Iterations, base)
		}
		if res.Stats.RecoveredForward+res.Stats.RecoveredInverse == 0 {
			t.Fatalf("%v on-demand: no recoveries recorded %+v", m, res.Stats)
		}
	}
}
