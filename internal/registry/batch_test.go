package registry

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func testBatchCfg() Config {
	return Config{
		Config: core.Config{
			Method:      core.MethodFEIR,
			PageDoubles: 64,
			Tol:         1e-10,
		},
	}
}

func batchRHS(n, cols int, seed int64) [][]float64 {
	rhs := make([][]float64, cols)
	for j := range rhs {
		rhs[j] = matgen.RandomVector(n, seed+int64(j))
	}
	return rhs
}

// TestCheckoutBatchRejections: a batch is refused whole, before any
// column takes an instance, when it has no columns, more than its width,
// or a column of the wrong length; and it refuses what Checkout refuses.
func TestCheckoutBatchRejections(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	co, err := octx.Checkout("cg", b, testBatchCfg())
	if err != nil {
		t.Fatal(err)
	}
	co.Release()

	cfg := testBatchCfg()
	cfg.PageDoubles = 128
	for name, c := range map[string]struct {
		solver string
		rhs    [][]float64
		cfg    Config
	}{
		"no columns":         {"cg", nil, testBatchCfg()},
		"beyond the width":   {"cg", batchRHS(a.N, 5, 7), testBatchCfg()},
		"short second col":   {"cg", [][]float64{b, b[1:]}, testBatchCfg()},
		"unknown solver":     {"nosuch", batchRHS(a.N, 2, 7), testBatchCfg()},
		"page size mismatch": {"cg", batchRHS(a.N, 2, 7), cfg},
	} {
		if _, err := octx.CheckoutBatch(c.solver, c.rhs, 4, c.cfg); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
	if co, err = octx.Checkout("cg", b, testBatchCfg()); err != nil {
		t.Fatal(err)
	}
	defer co.Release()
	if !co.Warm {
		t.Fatal("a refused batch took the warm instance")
	}
}

// TestCheckoutBatchColumnsMatchSolo: each column of a batch is bitwise
// the solo Checkout on that column; Iterations is the most any column
// ran, and Elapsed the wall time of the whole Run.
func TestCheckoutBatchColumnsMatchSolo(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	ax := make([]float64, a.N)
	a.MulVec(b, ax) // its solution is all ones: fewer iterations
	rhs := append(batchRHS(a.N, 2, 3), ax)

	co, err := octx.CheckoutBatch("cg", rhs, 4, testBatchCfg())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := co.S.Run()
	wall := time.Since(start)
	co.Release()
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	iters, distinct := 0, map[int]bool{}
	for j, col := range res.Columns {
		solo, err := octx.Checkout("cg", rhs[j], testBatchCfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Instance.Run()
		if err != nil || !want.Converged {
			t.Fatalf("solo %d: converged=%v err=%v", j, want.Converged, err)
		}
		x := solo.Instance.Solution()
		if col.Iterations != want.Iterations || col.RelResidual != want.RelResidual || col.Stats != want.Stats {
			t.Errorf("column %d: %+v, solo %+v", j, col, want)
		}
		for i := range x {
			if math.Float64bits(res.X[j][i]) != math.Float64bits(x[i]) {
				t.Fatalf("column %d row %d: %v, solo %v", j, i, res.X[j][i], x[i])
			}
		}
		solo.Release()
		sum += col.Elapsed
		iters = max(iters, col.Iterations)
		distinct[col.Iterations] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every column ran %d iterations: the maximum is not exercised", iters)
	}
	if res.Iterations != iters {
		t.Errorf("Iterations %d, want the columns' maximum %d", res.Iterations, iters)
	}
	if res.Elapsed < sum || res.Elapsed > wall {
		t.Errorf("Elapsed %v outside [columns' sum %v, wall time %v]", res.Elapsed, sum, wall)
	}
}

// TestCheckoutBatchWarmZeroRebuilds: after one batch, the next is warm
// and performs zero factorizations and zero graph preparations, whatever
// its number of columns.
func TestCheckoutBatchWarmZeroRebuilds(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)

	co, err := octx.CheckoutBatch("cg", batchRHS(a.N, 4, 1), 4, testBatchCfg())
	if err != nil {
		t.Fatal(err)
	}
	if co.Warm {
		t.Fatal("first batched checkout claims to be warm")
	}
	if res, err := co.S.Run(); err != nil || !res.Columns[0].Converged {
		t.Fatalf("warmup batch: %+v err=%v", res, err)
	}
	co.Release()

	fac0, prep0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	for i := 0; i < 3; i++ {
		co, err := octx.CheckoutBatch("cg", batchRHS(a.N, 2+i, int64(10*i)), 4, testBatchCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !co.Warm {
			t.Fatalf("batched checkout %d after warmup is not warm", i)
		}
		res, err := co.S.Run()
		if err != nil {
			t.Fatal(err)
		}
		for j, col := range res.Columns {
			if !col.Converged {
				t.Fatalf("warm batch %d col %d: %+v", i, j, col)
			}
		}
		co.Release()
	}
	if d := sparse.FactorizationCount() - fac0; d != 0 {
		t.Fatalf("warm batched solves performed %d factorizations, want 0", d)
	}
	if d := engine.GraphPrepCount() - prep0; d != 0 {
		t.Fatalf("warm batched solves performed %d graph preparations, want 0", d)
	}
}

// TestConcurrentBatchedCheckoutsDistinctRHS runs goroutines pushing
// distinct batches through one shared operator context. Under -race this
// is the data-race gate for the solo pool the columns share; it also pins
// zero rebuilds after a warmup as deep as the goroutines.
func TestConcurrentBatchedCheckoutsDistinctRHS(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	const gor = 3

	run := func(tag string) error {
		var wg sync.WaitGroup
		errs := make(chan error, gor)
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					co, err := octx.CheckoutBatch("cg", batchRHS(a.N, 3, int64(100*g+i)), 4, testBatchCfg())
					if err != nil {
						errs <- err
						return
					}
					res, err := co.S.Run()
					co.Release()
					if err != nil {
						errs <- err
						return
					}
					for j, col := range res.Columns {
						if !col.Converged {
							errs <- fmt.Errorf("%s g%d i%d col %d: %+v", tag, g, i, j, col)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		return nil
	}

	// Deterministic warmup: hold gor instances at once so the pool is
	// provably deep enough — a concurrent traffic round only pools as many
	// instances as the scheduler happened to overlap.
	held := make([]*Checkout, 0, gor)
	for g := 0; g < gor; g++ {
		co, err := octx.Checkout("cg", batchRHS(a.N, 1, int64(g))[0], testBatchCfg())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, co)
		if _, err := co.Instance.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, co := range held {
		co.Release()
	}
	fac0, prep0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	if err := run("steady"); err != nil {
		t.Fatal(err)
	}
	if d := sparse.FactorizationCount() - fac0; d != 0 {
		t.Fatalf("steady batched phase performed %d factorizations, want 0", d)
	}
	if d := engine.GraphPrepCount() - prep0; d != 0 {
		t.Fatalf("steady batched phase performed %d graph preparations, want 0", d)
	}
}
