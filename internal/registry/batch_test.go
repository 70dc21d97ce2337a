package registry

import (
	"fmt"
	"sync"
	"testing"

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

// TestCheckoutBatchRejections pins the capability gate: batched solving
// exists only for solvers declaring Batch, and only single-node.
func TestCheckoutBatchRejections(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	rhs := batchRHS(a.N, 2, 7)

	for _, name := range []string{"bicgstab", "gmres"} {
		if caps, ok := Caps(name); !ok || caps.Batch {
			t.Fatalf("%s: unexpected Batch capability", name)
		}
		if _, err := octx.CheckoutBatch(name, rhs, 4, testBatchCfg()); err == nil {
			t.Fatalf("%s: batched checkout did not fail", name)
		}
	}
	if _, err := octx.CheckoutBatch("nosuch", rhs, 4, testBatchCfg()); err == nil {
		t.Fatal("unknown solver accepted")
	}
	cfg := testBatchCfg()
	cfg.Ranks = 2
	if _, err := octx.CheckoutBatch("cg", rhs, 4, cfg); err == nil {
		t.Fatal("distributed batch accepted")
	}
	cfg = testBatchCfg()
	cfg.PageDoubles = 128
	if _, err := octx.CheckoutBatch("cg", rhs, 4, cfg); err == nil {
		t.Fatal("mismatched page size accepted")
	}
}

// TestCheckoutBatchWarmZeroRebuilds pins the batched serving claim:
// after warmup, batched checkouts against a cached operator perform zero
// factorizations and zero graph preparations, across Rebinds that vary
// the number of bound columns.
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
		cols := 2 + i // rebinding across widths stays warm
		co, err := octx.CheckoutBatch("cg", batchRHS(a.N, cols, int64(10*i)), 4, testBatchCfg())
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
// distinct batched RHS sets through one shared operator context — the
// coalescing dispatcher's steady state. Under -race this is the data-race
// gate for the batch pool; it also pins zero rebuilds after a concurrent
// warmup.
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
					if err != nil {
						errs <- err
						return
					}
					for j, col := range res.Columns {
						if !col.Converged {
							errs <- fmt.Errorf("%s g%d i%d col %d: %+v", tag, g, i, j, col)
							co.Release()
							return
						}
					}
					co.Release()
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
	// instances as the scheduler happened to overlap, and the steady phase
	// below would flake with a cold construction.
	held := make([]*BatchCheckout, 0, gor)
	for g := 0; g < gor; g++ {
		co, err := octx.CheckoutBatch("cg", batchRHS(a.N, 3, int64(g)), 4, testBatchCfg())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, co)
		if _, err := co.S.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, co := range held {
		co.Release()
	}
	if err := run("warmup"); err != nil {
		t.Fatal(err)
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
