package registry

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/taskrt"
)

// TestInlineChoice pins the size rule on the sweep it was placed from: the
// estimate of every row, the path the registry picks when the choice is
// its own, and that nothing else is ever put on a worker-less runtime — a
// caller's RT, a distributed solve, another solver.
func TestInlineChoice(t *testing.T) {
	for _, row := range inlineSweep {
		a := row.gen()
		octx := NewOperatorContext(row.name, a, 0)
		b := matgen.Ones(a.N)
		ops, limit := octx.IterOps(row.precond)
		if ops != row.ops || limit != inlineMaxOps || (ops < limit) != row.inline {
			t.Errorf("%s: IterOps = %d (bound %d), the table says %d and inline=%v", row.name, ops, limit, row.ops, row.inline)
		}
		cfg := Config{Config: core.Config{Method: row.method, UsePrecond: row.precond, Tol: 1e-8}}
		before := runtime.NumGoroutine()
		for i := 0; i < 2; i++ { // the second finds the first one's instance
			co, err := octx.Checkout("cg", b, cfg)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if co.Inline != row.inline || co.Warm != (i == 1) {
				t.Errorf("%s checkout %d: inline=%v warm=%v, want inline=%v warm=%v", row.name, i, co.Inline, co.Warm, row.inline, i == 1)
			}
			co.Release()
		}
		if row.inline {
			// The count is process-wide: a helper goroutine that has
			// signalled its WaitGroup (the context's parallel block
			// factorization, an earlier test's pool) may not have exited
			// yet, so it gets a bounded wait before it is called a leak.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if runtime.NumGoroutine() > before {
				t.Errorf("%s: an inline checkout started a goroutine that is still running", row.name)
			}
		}
	}

	a := matgen.RandomSPD(4096, 8, 1.5, 7) // the smallest indexed row: inline when the registry chooses
	b := matgen.Ones(a.N)
	for name, tc := range map[string]struct {
		solver string
		cfg    Config
	}{
		"caller's runtime": {"cg", Config{Config: core.Config{RT: taskrt.Shared(2)}}},
		"two ranks":        {"cg", Config{Ranks: 2}},
		"bicgstab":         {"bicgstab", Config{}},
	} {
		co, err := NewOperatorContext("m", a, 0).Checkout(tc.solver, b, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if co.Inline {
			t.Errorf("%s: checked out inline", name)
		}
	}
}

// TestInlineConcurrentCheckouts: every inline instance owns its runtime, so
// solves on one operator from several goroutines share nothing but the
// operator and its factors — and all compute the same bits. The race
// detector is the other half of this test.
func TestInlineConcurrentCheckouts(t *testing.T) {
	a := matgen.Thermal2Analogue(2048)
	octx := NewOperatorContext("m", a, 0)
	b := matgen.RandomVector(a.N, 3)
	cfg := Config{Config: core.Config{Method: core.MethodAFEIR, Tol: 1e-8}}
	solve := func() ([]float64, error) {
		co, err := octx.Checkout("cg", b, cfg)
		if err != nil {
			return nil, err
		}
		defer co.Release()
		if !co.Inline {
			t.Error("not an inline checkout")
		}
		if res, err := co.Instance.Run(); err != nil || !res.Converged {
			t.Errorf("converged=%v err=%v", res.Converged, err)
		}
		return append([]float64(nil), co.Instance.Solution()...), nil
	}
	want, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				x, err := solve()
				if err != nil {
					t.Error(err)
					return
				}
				for k := range x {
					if x[k] != want[k] {
						t.Errorf("x[%d] = %x, the first solve computed %x", k, x[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPanickingSolveFailsAndIsDropped: a task body that panics fails its
// solve at once. A fault plan naming "d" on single-node CG, whose
// direction vectors are d0 and d1, panics at the first fault site of
// iteration 0; Run returns ErrPanicked after one iteration instead of
// running on to MaxIter, and Release drops the instance rather than
// warm-pooling it.
func TestPanickingSolveFailsAndIsDropped(t *testing.T) {
	a := matgen.Poisson2D(30, 30)
	octx := NewOperatorContext("m", a, 64)
	b := matgen.Ones(a.N)
	iterations := 0
	cfg := Config{Config: core.Config{Method: core.MethodAFEIR, PageDoubles: 64, Tol: 1e-10, MaxIter: 20000,
		OnIteration: func(int, float64) { iterations++ }}}
	co, err := octx.Checkout("cg", b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Inline {
		t.Fatal("the operator is meant to solve inline")
	}
	co.Instance.Arm(&inject.Plan{Errors: []inject.PlannedError{{Vector: co.Instance.Spaces[0].VectorByName("d")}}})
	_, err = co.Instance.Run()
	co.Release()
	if !errors.Is(err, ErrPanicked) || iterations > 1 {
		t.Fatalf("err = %v after %d iterations, want %v within one", err, iterations, ErrPanicked)
	}
	co, err = octx.Checkout("cg", b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Release()
	if co.Warm {
		t.Fatal("the panicked instance was pooled")
	}
	if res, err := co.Instance.Run(); err != nil || !res.Converged {
		t.Fatalf("the next solve: %+v, %v", res, err)
	}
}
