package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// benchIterations times AFEIR Runs of a solver on the inline runtime
// (Poisson2D 32×32, 64-double pages, capped at 20 iterations), with and
// without preconditioning, and reports ns and allocations per iteration.
// The first Run prepares the task graph and is not timed; a Run's own few
// allocations (its Result) are spread over its iterations.
func benchIterations(b *testing.B, build func(a *sparse.CSR, rhs []float64, cfg Config) (func() (Result, []float64, error), error)) {
	a := matgen.Poisson2D(32, 32)
	rhs := matgen.RandomVector(a.N, 42)
	for _, pre := range []bool{false, true} {
		b.Run(fmt.Sprintf("precond=%v", pre), func(b *testing.B) {
			run, err := build(a, rhs, Config{Method: MethodAFEIR, PageDoubles: 64, UsePrecond: pre, Tol: 1e-14, MaxIter: 20, RT: taskrt.NewInline()})
			if err != nil {
				b.Fatal(err)
			}
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			its := 0
			for i := 0; i < b.N; i++ {
				res, _, err := run()
				if err != nil {
					b.Fatal(err)
				}
				its += res.Iterations
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(its), "ns/iter")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(its), "allocs/iter")
		})
	}
}

// BenchmarkBiCGStabIteration: ns and allocations per BiCGStab iteration.
func BenchmarkBiCGStabIteration(b *testing.B) {
	benchIterations(b, func(a *sparse.CSR, rhs []float64, cfg Config) (func() (Result, []float64, error), error) {
		s, err := NewBiCGStab(a, rhs, cfg)
		if err != nil {
			return nil, err
		}
		return s.Run, nil
	})
}

// BenchmarkGMRESIteration: ns and allocations per Arnoldi step.
func BenchmarkGMRESIteration(b *testing.B) {
	benchIterations(b, func(a *sparse.CSR, rhs []float64, cfg Config) (func() (Result, []float64, error), error) {
		s, err := NewGMRES(a, rhs, 0, cfg)
		if err != nil {
			return nil, err
		}
		return s.Run, nil
	})
}
