package dist

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func distSystem() (*sparse.CSR, []float64) {
	a := matgen.Poisson2D(40, 40) // n = 1600, 25 pages of 64
	b := matgen.RandomVector(a.N, 7)
	return a, b
}

func baseCfg(m core.Method) Config {
	return Config{Method: m, PageDoubles: 64, Tol: 1e-9, MaxIter: 20000}
}

// injected returns a launcher that installs inject on a freshly built
// solver and runs it: injected(fn)(NewCG(a, b, ranks, cfg)).
func injected(inject func(it int, ranks []*shard.Rank)) func(*CG, error) (core.Result, []float64, error) {
	return func(s *CG, err error) (core.Result, []float64, error) {
		if err != nil {
			return core.Result{}, nil, err
		}
		s.SetInject(inject)
		return s.Run()
	}
}

func TestSolveCGMatchesSequential(t *testing.T) {
	a, b := distSystem()
	for _, ranks := range []int{1, 3, 4} {
		res, x, err := SolveCG(a, b, ranks, baseCfg(core.MethodIdeal))
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !res.Converged {
			t.Fatalf("ranks=%d: not converged: %+v", ranks, res)
		}
		want := make([]float64, a.N)
		if _, err := solver.CG(a, b, want, solver.Options{Tol: 1e-9}); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("ranks=%d: x[%d] = %v, want %v", ranks, i, x[i], want[i])
			}
		}
	}
}

// TestNaNIterateNeverConverges: every rank's owned iterate overwritten
// with NaN behind the recurrence's back; the gathered true residual must
// refuse convergence, so Norm2 must keep the NaN, and the solve ends with
// core.ErrNonFinite when the recurrence first claims convergence.
func TestNaNIterateNeverConverges(t *testing.T) {
	a, b := distSystem()
	cfg := baseCfg(core.MethodIdeal)
	cfg.MaxIter = 300
	res, _, err := injected(func(it int, ranks []*shard.Rank) {
		if it == 5 {
			for _, r := range ranks {
				sparse.Fill(r.Space.VectorByName("x").Data[r.Lo:r.Hi], math.NaN())
			}
		}
	})(NewCG(a, b, 2, cfg))
	if !errors.Is(err, core.ErrNonFinite) {
		t.Fatalf("err = %v, want core.ErrNonFinite", err)
	}
	if res.Converged || res.Iterations >= cfg.MaxIter/2 {
		t.Fatalf("NaN iterate: converged=%v after %d of %d iterations", res.Converged, res.Iterations, cfg.MaxIter)
	}
}

// TestCGRanksBitwise: the partials of every reduction are stored per page
// and summed in page order whatever the rank count, and a clean FEIR or
// AFEIR solve runs Ideal's arithmetic, so every clean solve on one operator
// reaches the same iterate in the same number of iterations, to the bit.
func TestCGRanksBitwise(t *testing.T) {
	a, b := distSystem()
	var want core.Result
	var wantX []float64
	for _, method := range []core.Method{core.MethodIdeal, core.MethodFEIR, core.MethodAFEIR} {
		for ranks := 1; ranks <= 4; ranks++ {
			res, x, err := SolveCG(a, b, ranks, baseCfg(method))
			if err != nil || !res.Converged {
				t.Fatalf("%v ranks=%d: %+v err=%v", method, ranks, res, err)
			}
			if wantX == nil {
				want, wantX = res, x
				continue
			}
			if res.Iterations != want.Iterations || res.RelResidual != want.RelResidual {
				t.Fatalf("%v ranks=%d: %d iterations, residual %x; ideal on one rank %d, %x",
					method, ranks, res.Iterations, res.RelResidual, want.Iterations, want.RelResidual)
			}
			for i := range x {
				if x[i] != wantX[i] {
					t.Fatalf("%v ranks=%d: x[%d] = %x, ideal on one rank %x", method, ranks, i, x[i], wantX[i])
				}
			}
		}
	}
}

// injectInto schedules one x-page poison per listed iteration, each into
// an owned page of a distinct rank.
func injectInto(iters []int) func(it int, ranks []*shard.Rank) {
	return func(it int, ranks []*shard.Rank) {
		for k, at := range iters {
			if it == at {
				r := ranks[k%len(ranks)]
				r.Space.VectorByName("x").Poison((r.PLo + r.PHi) / 2)
			}
		}
	}
}

func TestSolveCGFEIRRecoversExactly(t *testing.T) {
	a, b := distSystem()
	base, _, err := SolveCG(a, b, 4, baseCfg(core.MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := injected(injectInto([]int{10, 25, 40}))(NewCG(a, b, 4, baseCfg(core.MethodFEIR)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("FEIR: %+v", res)
	}
	if res.Stats.FaultsSeen != 3 {
		t.Fatalf("faults seen %d, want 3", res.Stats.FaultsSeen)
	}
	if res.Stats.RecoveredInverse == 0 {
		t.Fatalf("expected inverse x recoveries: %+v", res.Stats)
	}
	// Exact recovery preserves the convergence rate.
	if d := res.Iterations - base.Iterations; d < -2 || d > 2 {
		t.Fatalf("%d iterations vs fault-free %d", res.Iterations, base.Iterations)
	}
}

func TestSolveCGCheckpointRollsBack(t *testing.T) {
	a, b := distSystem()
	cfg := baseCfg(core.MethodCheckpoint)
	cfg.CheckpointInterval = 20
	res, _, err := injected(injectInto([]int{30}))(NewCG(a, b, 4, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("ckpt: %+v", res)
	}
	if res.Stats.Rollbacks == 0 || res.Stats.CheckpointsWritten == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestSolveCGLossyRestarts(t *testing.T) {
	a, b := distSystem()
	res, _, err := injected(injectInto([]int{30}))(NewCG(a, b, 4, baseCfg(core.MethodLossy)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("lossy: %+v", res)
	}
	if res.Stats.LossyInterpolations == 0 || res.Stats.Restarts == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestSolveCGValidation(t *testing.T) {
	a, b := distSystem()
	if _, _, err := SolveCG(a, b[:10], 2, baseCfg(core.MethodIdeal)); err == nil {
		t.Fatal("accepted bad rhs")
	}
	rect := sparse.NewCSRFromTriplets(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, _, err := SolveCG(rect, []float64{1, 2}, 2, baseCfg(core.MethodIdeal)); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}
