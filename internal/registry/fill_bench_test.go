package registry

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// BenchmarkFirstLossFill prices the on-demand factor rule (DESIGN §8): a
// context's block cache is filled at the first page loss a solve applies,
// so that solve pays the fill mid-run. For each operator it times the fill
// alone (fill: a fresh cache, PrefactorizeLenient), then one FEIR and one
// AFEIR solve that lose one x page at iteration 10, on a cold context
// (its first loss fills the cache) and on a warm one (the cache is full).
// cold − warm in ms/solve is the fill as the solve sees it, paid once per
// operator context.
func BenchmarkFirstLossFill(b *testing.B) {
	for _, op := range []struct {
		name string
		gen  func() *sparse.CSR
	}{
		{"poisson27-32", func() *sparse.CSR { return matgen.Poisson3D27(32, 32, 32) }},
		{"thermal2-16384", func() *sparse.CSR { return matgen.Thermal2Analogue(16384) }},
	} {
		a := op.gen()
		rhs := matgen.RandomVector(a.N, 1)
		warm := NewOperatorContext(op.name, a, 0)
		warm.Blocks(true).PrefactorizeLenient()
		b.Run(op.name+"/fill", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.NewBlockSolverCache(a, warm.Layout, true).PrefactorizeLenient()
			}
		})
		for _, m := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
			for _, cold := range []bool{true, false} {
				name := fmt.Sprintf("%s/%v/warm", op.name, m)
				if cold {
					name = fmt.Sprintf("%s/%v/cold", op.name, m)
				}
				b.Run(name, func(b *testing.B) {
					var solve time.Duration
					fac0 := sparse.FactorizationCount()
					for i := 0; i < b.N; i++ {
						octx := warm
						if cold {
							octx = NewOperatorContext(op.name, a, 0)
						}
						co, err := octx.Checkout("cg", rhs, Config{Config: core.Config{Method: m, Tol: 1e-10}})
						if err != nil {
							b.Fatal(err)
						}
						x := co.Instance.Spaces[0].VectorByName("x")
						plan := &inject.Plan{Errors: []inject.PlannedError{{Vector: x, Page: octx.Layout.NumBlocks() / 2, AtIteration: 10}}}
						plan.Start()
						co.Instance.SetSite(plan.Site)
						res, err := co.Instance.Run()
						if err != nil || !res.Converged || plan.Fired() != 1 {
							b.Fatalf("converged=%v err=%v fired=%d", res.Converged, err, plan.Fired())
						}
						solve += res.Elapsed
						co.Release()
					}
					b.ReportMetric(float64(solve.Microseconds())/1e3/float64(b.N), "ms/solve")
					b.ReportMetric(float64(sparse.FactorizationCount()-fac0)/float64(b.N), "factors/solve")
				})
			}
		}
	}
}
