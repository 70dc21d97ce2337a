package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/sparse"
)

// The multi-RHS contract at the solver level: there is no batched CG, a
// multi-RHS run (registry.CheckoutBatch) solves its columns one after
// another on warm CG instances, and each column IS the CG run on that
// right-hand side — same iteration count, bitwise the same solution.

func multiRHSConfig(m core.Method) registry.Config {
	return registry.Config{Config: core.Config{
		Method:      m,
		Workers:     4,
		PageDoubles: 64,
		Tol:         1e-10,
		MaxIter:     20000,
	}}
}

func multiRHS(n, cols int) [][]float64 {
	rhs := make([][]float64, cols)
	for j := range rhs {
		rhs[j] = matgen.RandomVector(n, int64(42+j))
	}
	return rhs
}

// runMultiRHS checks out rhs at width 4 on octx and runs it.
func runMultiRHS(t *testing.T, octx *registry.OperatorContext, rhs [][]float64, cfg registry.Config) registry.BatchResult {
	t.Helper()
	co, err := octx.CheckoutBatch("cg", rhs, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.S.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != len(rhs) {
		t.Fatalf("%d columns for %d right-hand sides", len(res.Columns), len(rhs))
	}
	return res
}

// soloCG is the CG run on b alone, built directly (no pool).
func soloCG(t *testing.T, a *sparse.CSR, b []float64, m core.Method) (core.Result, []float64) {
	t.Helper()
	cg, err := core.NewCG(a, b, multiRHSConfig(m).Config)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, cg.Solution()
}

func TestBatchCGCleanMatchesUnbatchedPerColumn(t *testing.T) {
	a := matgen.Poisson2D(40, 40) // n = 1600, 25 pages of 64
	rhs := multiRHS(a.N, 3)
	for _, m := range []core.Method{core.MethodIdeal, core.MethodFEIR, core.MethodAFEIR} {
		octx := registry.NewOperatorContext("m", a, 64)
		res := runMultiRHS(t, octx, rhs, multiRHSConfig(m))
		for j, col := range res.Columns {
			if !col.Converged || col.RelResidual > 1e-9 {
				t.Fatalf("%v col %d: %+v", m, j, col)
			}
			if col.Stats.FaultsSeen != 0 || col.Stats.Unrecovered != 0 {
				t.Fatalf("%v col %d phantom faults: %+v", m, j, col.Stats)
			}
			want, x := soloCG(t, a, rhs[j], m)
			if col.Iterations != want.Iterations {
				t.Fatalf("%v col %d: %d iterations, solo %d", m, j, col.Iterations, want.Iterations)
			}
			for i := range x {
				if math.Float64bits(res.X[j][i]) != math.Float64bits(x[i]) {
					t.Fatalf("%v col %d row %d: %v, solo %v", m, j, i, res.X[j][i], x[i])
				}
			}
		}
	}
}

// TestBatchCGRebindReusesPreparedGraph: a second multi-RHS run with more
// columns rebinds the warm instance the first one left in the pool and
// replays its prepared task graphs — no graph preparation, no
// factorization — and its last column is still bitwise the solo run.
func TestBatchCGRebindReusesPreparedGraph(t *testing.T) {
	a := matgen.Poisson2D(40, 40)
	octx := registry.NewOperatorContext("m", a, 64)
	cfg := multiRHSConfig(core.MethodFEIR)
	runMultiRHS(t, octx, multiRHS(a.N, 2), cfg)

	preps, facs := engine.GraphPrepCount(), sparse.FactorizationCount()
	rhs := multiRHS(a.N, 4)
	co, err := octx.CheckoutBatch("cg", rhs, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Warm {
		t.Fatal("second multi-RHS checkout is not warm")
	}
	res, err := co.S.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.GraphPrepCount(); got != preps {
		t.Fatalf("graph preps after rebind: %d -> %d", preps, got)
	}
	if got := sparse.FactorizationCount(); got != facs {
		t.Fatalf("factorizations after rebind: %d -> %d", facs, got)
	}
	for j, col := range res.Columns {
		if !col.Converged || col.RelResidual > 1e-9 {
			t.Fatalf("col %d after rebind: %+v", j, col)
		}
	}
	_, x := soloCG(t, a, rhs[3], core.MethodFEIR)
	for i := range x {
		if math.Float64bits(res.X[3][i]) != math.Float64bits(x[i]) {
			t.Fatalf("row %d: %v vs %v", i, res.X[3][i], x[i])
		}
	}
}

// TestBatchCGZeroColumnRetiresImmediately: a zero right-hand side is
// solved by x = 0 before the first iteration, and its neighbour still
// runs to convergence.
func TestBatchCGZeroColumnRetiresImmediately(t *testing.T) {
	a := matgen.Poisson2D(40, 40)
	octx := registry.NewOperatorContext("m", a, 64)
	rhs := [][]float64{matgen.RandomVector(a.N, 42), make([]float64, a.N)}
	res := runMultiRHS(t, octx, rhs, multiRHSConfig(core.MethodIdeal))
	if c := res.Columns[1]; !c.Converged || c.Iterations != 0 {
		t.Fatalf("zero column: %+v", c)
	}
	for i, v := range res.X[1] {
		if v != 0 {
			t.Fatalf("zero column row %d: %v", i, v)
		}
	}
	if c := res.Columns[0]; !c.Converged || c.Iterations == 0 {
		t.Fatalf("live column: %+v", c)
	}
	if res.Iterations != res.Columns[0].Iterations {
		t.Fatalf("Iterations %d, live column ran %d", res.Iterations, res.Columns[0].Iterations)
	}
}
