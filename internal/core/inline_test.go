package core

import (
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/taskrt"
)

// TestInlineCGUnderWallClockStorm runs the whole task graph — prepared
// bodies, overlapped and critical-path recoveries, boundaries — on the
// calling goroutine (taskrt.NewInline) while an injector goroutine poisons
// pages on the wall clock: what a due-serve request with due_mtbe_ns does
// on a small operator. The solver's guards must stand without a pool's
// hand-offs between them and the injector; under -race this is the gate.
// The same instance is then replayed clean and must allocate nothing per
// iteration.
func TestInlineCGUnderWallClockStorm(t *testing.T) {
	a, b := testSystem()
	for _, method := range []Method{MethodFEIR, MethodAFEIR} {
		for _, usePrecond := range []bool{false, true} {
			cfg := testConfig(method)
			cfg.UsePrecond = usePrecond
			cfg.MaxIter = 600 // the race detector slows the solve, not the injector: bound the storm
			cfg.RT = taskrt.NewInline()
			s, err := NewCG(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := inject.NewInjector(s.Space(), s.DynamicVectors(), 300*time.Microsecond, 7)
			in.Start()
			res, err := s.Run()
			in.Stop()
			s.Space().ScramblePending() // a poison that landed after the last boundary
			if err != nil {
				t.Fatalf("%v precond=%v: %v", method, usePrecond, err)
			}
			if res.Converged && res.RelResidual > 1e-8 {
				t.Fatalf("%v precond=%v: converged with true residual %g (%+v)", method, usePrecond, res.RelResidual, res.Stats)
			}
			t.Logf("%v precond=%v: %d injected, converged=%v in %d iterations, %+v", method, usePrecond, in.Injected(), res.Converged, res.Iterations, res.Stats)

			clean, err := s.Run() // same instance, same prepared graph
			if err != nil || !clean.Converged || clean.Stats.FaultsSeen != 0 {
				t.Fatalf("%v precond=%v clean replay: converged=%v err=%v %+v", method, usePrecond, clean.Converged, err, clean.Stats)
			}
			short := 20
			s.cfg.MaxIter = short
			few := testing.AllocsPerRun(5, func() { _, _ = s.Run() })
			s.cfg.MaxIter = 3 * short
			many := testing.AllocsPerRun(5, func() { _, _ = s.Run() })
			if many > few {
				t.Fatalf("%v precond=%v: %.0f allocations in %d iterations, %.0f in %d: the inline iteration allocates", method, usePrecond, few, short, many, 3*short)
			}
		}
	}
}
