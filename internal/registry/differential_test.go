package registry

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// The differential harness of ROADMAP item 2 starts here, in the one
// package that sees every solver and both topologies: a table of
// configurations, each solved more than one way, each pair of ways held to
// a stated tier of equality. These are its first rows — the topology axis:
// WHERE a solve's tasks run (the shared pool, a pool of another size, no
// pool at all) must not change a single bit of what it computes. Later
// rows (ranks, fault sites, the unthinned storm) join this table; they do
// not get files of their own.

// diffOutcome is everything a solve reports that must not depend on the
// runtime it ran on.
type diffOutcome struct {
	x     []float64
	res   core.Result
	fired int
}

// sameBits compares two outcomes with == on every bit and reports the first
// difference.
func sameBits(a, b diffOutcome) error {
	if a.res.Iterations != b.res.Iterations || a.res.Converged != b.res.Converged {
		return fmt.Errorf("iterations %d/%v vs %d/%v", a.res.Iterations, a.res.Converged, b.res.Iterations, b.res.Converged)
	}
	if a.res.RelResidual != b.res.RelResidual {
		return fmt.Errorf("true residual %x vs %x", a.res.RelResidual, b.res.RelResidual)
	}
	if a.res.Stats != b.res.Stats || a.fired != b.fired {
		return fmt.Errorf("stats %+v (fired %d) vs %+v (fired %d)", a.res.Stats, a.fired, b.res.Stats, b.fired)
	}
	for i := range a.x {
		if a.x[i] != b.x[i] {
			return fmt.Errorf("x[%d] = %x vs %x", i, a.x[i], b.x[i])
		}
	}
	return nil
}

// diffStorm compiles the seeded iteration-driven plan of one storm solve
// over the instance's own vectors: exponential gaps of mean 6 iterations,
// at most one page loss per iteration (the regime the exact relations
// cover, §2.4).
func diffStorm(seed int64, s *core.CG, maxIter int) *inject.Plan {
	plan := inject.Schedule{
		Phases:  []inject.RatePhase{{MeanIters: 6}},
		Seed:    seed,
		Targets: s.DynamicVectors(),
	}.Compile(maxIter)
	kept := plan.Errors[:0]
	for _, e := range plan.Errors {
		if len(kept) == 0 || kept[len(kept)-1].AtIteration != e.AtIteration {
			kept = append(kept, e)
		}
	}
	plan.Errors = kept
	plan.Start()
	return plan
}

func TestDifferentialInlineVsPool(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 1536 // three pages: still a first, an interior and a last one
	}
	operators := []struct {
		name, shadow string
		a            *sparse.CSR
	}{
		{"rspd", "sell", matgen.RandomSPD(n, 8, 1.5, 7)},
		{"consph", "csr32", matgen.ConsphAnalogue(n)},
		{"thermal2", "dia", matgen.Thermal2Analogue(n)},
	}
	methods := []core.Method{core.MethodIdeal, core.MethodFEIR, core.MethodAFEIR, core.MethodLossy, core.MethodCheckpoint}

	taskrt.CloseShared() // the table states its pool sizes
	defer taskrt.CloseShared()
	four := taskrt.New(4)
	defer four.Close()
	inline := taskrt.NewInline()
	defer inline.Close()
	runtimes := []struct {
		name string
		rt   *taskrt.Runtime
	}{{"Shared(2)", taskrt.Shared(2)}, {"New(4)", four}, {"NewInline()", inline}}

	var roundingTier []string
	for oi, op := range operators {
		if got := op.a.ShadowName(); got != op.shadow {
			t.Fatalf("%s selects the %s shadow, the table wants %s", op.name, got, op.shadow)
		}
		octx := NewOperatorContext(op.name, op.a, 0)
		b := matgen.RandomVector(op.a.N, int64(100+oi))
		for _, method := range methods {
			for _, usePrecond := range []bool{false, true} {
				// A stormed solve gets three times its clean iteration count:
				// the blank-page methods can need far more, and how a solve
				// that runs out ends is compared like everything else.
				maxIter := op.a.N
				for _, storm := range []bool{false, true} {
					seed := int64(1000*oi + 10*int(method) + 1)
					name := fmt.Sprintf("%s/%v/precond=%v/storm=%v/seed=%d", op.name, method, usePrecond, storm, seed)
					solve := func(rt *taskrt.Runtime) diffOutcome {
						t.Helper()
						disk := core.NewSimDisk(1e15) // checkpoint I/O is not what is compared
						disk.Latency = 0
						cfg := core.Config{
							Method: method, UsePrecond: usePrecond, Tol: 1e-9, MaxIter: maxIter,
							CheckpointInterval: 25, Disk: disk,
							RT: rt, Blocks: octx.Blocks(true),
						}
						s, err := core.NewCG(op.a, b, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var plan *inject.Plan
						if storm {
							plan = diffStorm(seed, s, cfg.MaxIter)
							s.SetOnIteration(func(it int, _ float64) { plan.Tick(it) })
						}
						res, err := s.Run()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						res.Elapsed, res.WorkerTimes = 0, nil
						out := diffOutcome{x: append([]float64(nil), s.Solution()...), res: res}
						if plan != nil {
							out.fired = plan.Fired()
						}
						return out
					}
					pool := solve(runtimes[0].rt)
					if storm {
						if pool.fired == 0 {
							t.Errorf("%s: the storm fired nothing", name)
						}
						// Faults land at the OnIteration fixpoint, so the pool
						// should reproduce itself; where it does not, bit
						// equality with it means nothing and the case is held
						// to the rounding-exact tier instead, by name.
						if err := sameBits(pool, solve(runtimes[0].rt)); err != nil {
							roundingTier = append(roundingTier, name)
							for _, r := range runtimes[1:] {
								got := solve(r.rt)
								if d := got.res.Iterations - pool.res.Iterations; d < -3 || d > 3 || got.res.Converged != pool.res.Converged ||
									(got.res.Converged && got.res.RelResidual > 1e-8) {
									t.Errorf("%s on %s (rounding-exact tier): %d iterations, converged=%v, residual %g; pool %d, %v, %g",
										name, r.name, got.res.Iterations, got.res.Converged, got.res.RelResidual,
										pool.res.Iterations, pool.res.Converged, pool.res.RelResidual)
								}
							}
							continue
						}
					} else if maxIter = 3 * pool.res.Iterations; !pool.res.Converged {
						t.Errorf("%s: the clean solve did not converge in %d iterations", name, pool.res.Iterations)
					}
					for _, r := range runtimes[1:] {
						if err := sameBits(pool, solve(r.rt)); err != nil {
							t.Errorf("%s: %s differs from %s: %v", name, r.name, runtimes[0].name, err)
						}
					}
				}
			}
		}
	}
	// Never silently dropped: the cases the pool itself does not reproduce.
	for _, name := range roundingTier {
		t.Logf("held to the rounding-exact tier (two pool runs of one plan differ): %s", name)
	}
}
