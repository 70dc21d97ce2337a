package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// stormed runs s under a DUE storm armed on its fault sites and checks
// that the storm left nothing behind: every loss it fired was applied
// inside the Run (nothing pending in the space) and no goroutine outlives
// it (earlier tests' pools may still be winding down, so the count may
// only fall). A block cache's fill goroutines call wg.Done before they
// exit, so the count is given a bounded wait to return to where it
// stood. It returns the result and the fired log.
func stormed(t *testing.T, s *CG, plan *inject.Plan) (Result, *inject.Plan) {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	plan.Start()
	s.SetSite(plan.Site)
	res, err := s.Run()
	s.SetSite(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Space().PendingCount(); n != 0 {
		t.Fatalf("%d losses pending after Run returned", n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the stormed Run, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	return res, plan.Log()
}

// idealWork is the work clock's unit for a system: the page operations
// of its fault-free Ideal solve under cfg, counted by an empty plan.
func idealWork(t *testing.T, a *sparse.CSR, b []float64, cfg Config) float64 {
	t.Helper()
	cfg.Method = MethodIdeal
	s, err := NewCG(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := &inject.Plan{}
	count.Start()
	s.SetSite(count.Site)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return float64(count.Work())
}

// stream is a DUE storm over the solver's dynamic vectors at rate
// expected losses per unit of work.
func stream(s *CG, unit, rate float64, seed int64) *inject.Plan {
	return &inject.Plan{Stream: &inject.Stream{Targets: s.DynamicVectors(), MeanWork: unit / rate, Seed: seed}}
}

// TestInlineCGUnderWallClockStorm runs the whole task graph — prepared
// bodies, overlapped and critical-path recoveries, boundaries — on the
// calling goroutine (taskrt.NewInline) under a storm fired from the
// solve's own task starts on the work clock that replaced the wall clock:
// what a due-serve request with due_rate does on a small operator. Every
// loss the storm fires is seen by the solve, none is left pending, and
// under -race this is the gate. The same instance is then replayed clean
// and must allocate nothing per iteration.
func TestInlineCGUnderWallClockStorm(t *testing.T) {
	a, b := testSystem()
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		for _, usePrecond := range []bool{false, true} {
			cfg := testConfig(method)
			cfg.UsePrecond = usePrecond
			cfg.MaxIter = 600
			unit := idealWork(t, a, b, cfg)
			cfg.RT = taskrt.NewInline()
			s, err := NewCG(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, log := stormed(t, s, stream(s, unit, 4, 7))
			if len(log.Errors) == 0 {
				t.Fatalf("%v precond=%v: the storm fired nothing", method, usePrecond)
			}
			if res.Converged && res.RelResidual > 1e-8 {
				t.Fatalf("%v precond=%v: converged with true residual %g (%+v)", method, usePrecond, res.RelResidual, res.Stats)
			}
			if res.Stats.FaultsSeen != len(log.Errors) {
				t.Fatalf("%v precond=%v: %d losses fired, %d seen", method, usePrecond, len(log.Errors), res.Stats.FaultsSeen)
			}
			t.Logf("%v precond=%v: %d injected, converged=%v in %d iterations, %+v", method, usePrecond, len(log.Errors), res.Converged, res.Iterations, res.Stats)

			clean, err := s.Run() // same instance, same prepared graph
			if err != nil || !clean.Converged || clean.Stats.FaultsSeen != 0 {
				t.Fatalf("%v precond=%v clean replay: converged=%v err=%v %+v", method, usePrecond, clean.Converged, err, clean.Stats)
			}
			noIterationAllocates(t, fmt.Sprintf("cg %v precond=%v", method, usePrecond), 20, func(maxIter int) Result {
				s.cfg.MaxIter = maxIter
				res, _ := s.Run()
				return res
			})
		}
	}
}

// noIterationAllocates runs a solver capped at short iterations and at
// three times as many and fails if the longer Runs allocate more: what a
// Run prepares, it prepares once, and no iteration allocates. The cap, not
// convergence, must end the longer Run.
func noIterationAllocates(t *testing.T, name string, short int, run func(maxIter int) Result) {
	t.Helper()
	few := testing.AllocsPerRun(5, func() { run(short) })
	many := testing.AllocsPerRun(5, func() { run(3 * short) })
	if many > few {
		t.Fatalf("%s: %.0f allocations in %d iterations, %.0f in %d: the inline iteration allocates", name, few, short, many, 3*short)
	}
	if res := run(3 * short); res.Iterations != 3*short {
		t.Fatalf("%s: %d iterations, want the cap %d", name, res.Iterations, 3*short)
	}
}

// TestInlineKrylovIterationsDoNotAllocate holds BiCGStab and GMRES to
// CG's rule on the inline runtime: FEIR and AFEIR, with and without
// preconditioning, each iteration replays the waves prepared on the first
// Run and allocates nothing.
func TestInlineKrylovIterationsDoNotAllocate(t *testing.T) {
	a, b := testSystem()
	for _, name := range []string{"bicgstab", "gmres"} {
		for _, method := range []Method{MethodFEIR, MethodAFEIR} {
			for _, usePrecond := range []bool{false, true} {
				cfg := testConfig(method)
				cfg.UsePrecond, cfg.Tol, cfg.RT = usePrecond, 1e-14, taskrt.NewInline()
				var s interface {
					Run() (Result, []float64, error)
				}
				var c *Config
				if name == "bicgstab" {
					sv, err := NewBiCGStab(a, b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					s, c = sv, &sv.cfg
				} else {
					sv, err := NewGMRES(a, b, 0, cfg)
					if err != nil {
						t.Fatal(err)
					}
					s, c = sv, &sv.cfg
				}
				noIterationAllocates(t, fmt.Sprintf("%s %v precond=%v", name, method, usePrecond), 10, func(maxIter int) Result {
					c.MaxIter = maxIter
					res, _, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
			}
		}
	}
}

// TestInlineStormRepeatsBesideSpinner: on the inline runtime a seed and a
// rate are one storm whatever else the host runs. The rate's unit, an
// ideal solve's page operations, is the same inline and on a pool of
// four. Ten seeds at rate 8, each solved once alone and once beside one
// CPU-bound goroutine after a first run, give identical solves per seed:
// iterations, the residual's bits, every resilience counter and the fired
// log, site for site.
func TestInlineStormRepeatsBesideSpinner(t *testing.T) {
	a := matgen.Poisson2D(24, 24)
	b := matgen.RandomVector(a.N, 42)
	cfg := testConfig(MethodAFEIR)
	cfg.MaxIter = 600
	unit := idealWork(t, a, b, cfg) // on a private pool of cfg.Workers
	if cfg.RT = taskrt.NewInline(); idealWork(t, a, b, cfg) != unit {
		t.Fatalf("an ideal solve counts %g page operations on a pool, not the same inline", unit)
	}
	solve := func(seed int64) (Result, *inject.Plan) {
		cfg.RT = taskrt.NewInline()
		s, err := NewCG(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stormed(t, s, stream(s, unit, 8, seed))
	}
	var want [10]Result
	var wantLog [10]*inject.Plan
	for seed := range want {
		want[seed], wantLog[seed] = solve(int64(seed + 1))
		if len(wantLog[seed].Errors) == 0 {
			t.Fatalf("seed %d: the storm fired nothing", seed+1)
		}
	}
	for _, spin := range []bool{false, true} {
		var stop atomic.Bool
		spun := make(chan struct{})
		if spin {
			go func() { // the one competitor
				defer close(spun)
				for !stop.Load() {
				}
			}()
		} else {
			close(spun)
		}
		for seed := range want {
			got, log := solve(int64(seed + 1))
			if got.Iterations != want[seed].Iterations || math.Float64bits(got.RelResidual) != math.Float64bits(want[seed].RelResidual) ||
				got.Stats != want[seed].Stats || !sameLog(log, wantLog[seed]) {
				t.Errorf("seed %d, spinner %v: %d losses in %d iterations (%+v), first run %d in %d (%+v)", seed+1, spin,
					len(log.Errors), got.Iterations, got.Stats, len(wantLog[seed].Errors), want[seed].Iterations, want[seed].Stats)
			}
		}
		stop.Store(true)
		<-spun
	}
}

// sameLog reports whether two fired logs name the same losses at the same
// sites, comparing vectors by name.
func sameLog(a, b *inject.Plan) bool {
	if len(a.Errors) != len(b.Errors) {
		return false
	}
	for i, e := range a.Errors {
		f := b.Errors[i]
		if e.Vector.Name() != f.Vector.Name() {
			return false
		}
		e.Vector, f.Vector = nil, nil
		if e != f {
			return false
		}
	}
	return true
}

// TestStormReplaysOnInline records work-clock storms on the inline runtime
// and replays each one's fired log, an iteration plan stamped with the
// site of every loss, on a fresh inline instance: ten replays per row, and
// every one must reproduce the recorded solve exactly — iterations, the
// residual's bits, every resilience counter and the bits of x.
func TestStormReplaysOnInline(t *testing.T) {
	// A ninth of testSystem's pages: 176 solves a pass stay cheap under
	// -race at every processor count.
	a := matgen.Poisson2D(24, 24)
	b := matgen.RandomVector(a.N, 42)
	fired := 0
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		for _, usePrecond := range []bool{false, true} {
			cfg := testConfig(method)
			cfg.UsePrecond = usePrecond
			cfg.MaxIter = 600
			build := func() *CG {
				cfg.RT = taskrt.NewInline()
				s, err := NewCG(a, b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			unit := idealWork(t, a, b, cfg)
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%v precond=%v seed %d", method, usePrecond, seed)
				rec := build()
				want, log := stormed(t, rec, stream(rec, unit, 6, seed))
				fired += len(log.Errors)
				wantX := hashX(rec.Solution())
				for replay := 0; replay < 10; replay++ {
					s := build()
					got, _ := stormed(t, s, retarget(log, s))
					if got.Converged != want.Converged || got.Iterations != want.Iterations ||
						math.Float64bits(got.RelResidual) != math.Float64bits(want.RelResidual) ||
						got.Stats != want.Stats || hashX(s.Solution()) != wantX {
						t.Fatalf("%s replay %d: %d losses replayed to %+v, recorded %+v", name, replay, len(log.Errors), got, want)
					}
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("no storm fired a loss: nothing was replayed")
	}
	t.Logf("%d losses over 16 recorded storms, each replayed 10 times", fired)
}

// retarget points a recorded log at another instance's vectors of the
// same names.
func retarget(log *inject.Plan, s *CG) *inject.Plan {
	out := &inject.Plan{Errors: append([]inject.PlannedError(nil), log.Errors...)}
	for i := range out.Errors {
		out.Errors[i].Vector = s.Space().VectorByName(out.Errors[i].Vector.Name())
	}
	return out
}

// hashX is the FNV-1a hash of x's bits.
func hashX(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
