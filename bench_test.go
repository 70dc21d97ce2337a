// Benchmarks regenerating the paper's tables and figures (one per
// artefact) plus ablations for the design choices called out in DESIGN.md.
// The full-size reproductions run through cmd/due-bench; these benches use
// scaled-down workloads so `go test -bench=.` completes in minutes and
// reports the headline metrics with b.ReportMetric.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:       2048,
		Workers:     4,
		PageDoubles: 128,
		Reps:        1,
		Tol:         1e-8,
		Matrices:    []string{"qa8fm", "Dubcova3", "parabolic_fem"},
		Rates:       []int{1, 5},
		Seed:        1,
	}
}

// BenchmarkTable2 regenerates Table 2 (no-error overheads) and reports the
// AFEIR/FEIR/ckpt-200 overhead percentages.
func BenchmarkTable2(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			switch r.Method {
			case "AFEIR":
				b.ReportMetric(r.Overhead*100, "AFEIR-ovh-%")
			case "FEIR":
				b.ReportMetric(r.Overhead*100, "FEIR-ovh-%")
			case "ckpt 200":
				b.ReportMetric(r.Overhead*100, "ckpt200-ovh-%")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (state-time increases).
func BenchmarkTable3(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Method == "FEIR" {
				b.ReportMetric(r.Imbalance*100, "FEIR-imbalance-%")
			}
		}
	}
}

// BenchmarkFig3 regenerates the Figure 3 single-error convergence study.
func BenchmarkFig3(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 5 {
			b.Fatalf("series = %d", len(res.Series))
		}
	}
}

// BenchmarkFig4Means regenerates the Figure 4 method-mean slowdowns on a
// reduced grid and reports the rate-1 means for AFEIR and FEIR.
func BenchmarkFig4Means(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(opts, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MethodMeans["AFEIR"][1]*100, "AFEIR@1x-%")
		b.ReportMetric(res.MethodMeans["FEIR"][1]*100, "FEIR@1x-%")
	}
}

// BenchmarkFig4PCGMeans regenerates the preconditioned panel of Figure 4.
func BenchmarkFig4PCGMeans(b *testing.B) {
	opts := benchOpts()
	opts.Matrices = []string{"qa8fm"}
	opts.Rates = []int{1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(opts, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MethodMeans["AFEIR"][1]*100, "PCG-AFEIR@1x-%")
	}
}

// BenchmarkFig5Model regenerates the Figure 5 speedup curves from the
// calibrated model and reports the 1024-core anchors.
func BenchmarkFig5Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := perfmodel.New()
		b.ReportMetric(m.Speedup(core.MethodAFEIR, 1024, 1), "AFEIR@1024c-1err")
		b.ReportMetric(m.Speedup(core.MethodFEIR, 1024, 1), "FEIR@1024c-1err")
		b.ReportMetric(m.Speedup(core.MethodAFEIR, 1024, 2), "AFEIR@1024c-2err")
		b.ReportMetric(m.ParallelEfficiency(1024)*100, "ideal-eff-%")
	}
}

// BenchmarkFig5Functional anchors the model with a real distributed run
// (goroutine ranks, 16³ stencil, two injected errors, FEIR).
func BenchmarkFig5Functional(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ValidateDistributed(core.MethodFEIR, 4, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("not converged")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------------

// BenchmarkAblationDoubleBuffer measures the memory-traffic cost of the
// double-buffered direction update (Listing 2) vs the in-place update the
// ideal CG uses — the price of the d = A⁻¹q redundancy.
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	n := 1 << 16
	src := matgen.RandomVector(n, 1)
	d1 := matgen.RandomVector(n, 2)
	d2 := matgen.RandomVector(n, 3)
	b.Run("inplace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.XpbyRange(src, 0.5, d1, 0, n)
		}
	})
	b.Run("doublebuffer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.XpbyOutRange(src, 0.5, d2, d1, 0, n)
		}
	})
}

// BenchmarkAblationBlockSolve compares the diagonal-block factorizations a
// recovery can use (§2.3): Cholesky (SPD fast path), LU (general), QR
// least-squares (singular fallback), on a page-sized 512×512 block.
func BenchmarkAblationBlockSolve(b *testing.B) {
	a := matgen.Poisson2D(64, 64) // 4096: diagonal block of 512
	layout := sparse.BlockLayout{N: a.N, BlockSize: 512}
	lo, hi := layout.Range(2)
	block := a.DiagBlock(lo, hi)
	rhs := matgen.RandomVector(hi-lo, 4)
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := sparse.NewCholesky(block)
			if err != nil {
				b.Fatal(err)
			}
			buf := append([]float64(nil), rhs...)
			c.Solve(buf)
		}
	})
	b.Run("lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := sparse.NewLU(block)
			if err != nil {
				b.Fatal(err)
			}
			f.Solve(rhs)
		}
	})
	b.Run("qr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q, err := sparse.NewQR(block)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := q.SolveLeastSquares(rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPageSize runs FEIR with one injected error at different
// recovery granularities: larger pages mean fewer, costlier recoveries.
func BenchmarkAblationPageSize(b *testing.B) {
	a := matgen.Poisson2D(48, 48)
	rhs := matgen.Ones(a.N)
	for _, pd := range []int{64, 128, 256, 512} {
		b.Run(sizeName(pd), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Method: core.MethodFEIR, Workers: 4, PageDoubles: pd, Tol: 1e-8}
				cg, err := core.NewCG(a, rhs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cfgI := cfg
				cfgI.OnIteration = func(it int, rel float64) {
					if it == 10 {
						cg.Space().VectorByName("x").Poison(0)
					}
				}
				cg, err = core.NewCG(a, rhs, cfgI)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cg.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(pd int) string { return fmt.Sprintf("page%d", pd) }

// BenchmarkSpMV measures the core SpMV kernel on the 27-point stencil.
func BenchmarkSpMV(b *testing.B) {
	a := matgen.Poisson3D27(20, 20, 20)
	x := matgen.RandomVector(a.N, 5)
	y := make([]float64, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
	b.SetBytes(int64(a.NNZ() * 12))
}

// BenchmarkCGVariantsNoErrors compares the per-solve cost of the ideal,
// FEIR and AFEIR CGs without faults: the Table 2 microcosm.
func BenchmarkCGVariantsNoErrors(b *testing.B) {
	a := matgen.Poisson2D(48, 48)
	rhs := matgen.Ones(a.N)
	for _, m := range []core.Method{core.MethodIdeal, core.MethodAFEIR, core.MethodFEIR} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cg, err := core.NewCG(a, rhs, core.Config{Method: m, Workers: 4, PageDoubles: 128, Tol: 1e-8})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cg.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInjectorThroughput measures the error-injection fast path.
func BenchmarkInjectorThroughput(b *testing.B) {
	a := matgen.Poisson2D(32, 32)
	cg, err := core.NewCG(a, matgen.Ones(a.N), core.Config{Method: core.MethodFEIR, PageDoubles: 64})
	if err != nil {
		b.Fatal(err)
	}
	vecs := cg.DynamicVectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs[i%len(vecs)].Poison(i % cg.Space().NumPages())
		if i%64 == 0 {
			cg.Space().ScramblePending()
			cg.Space().ClearAll()
		}
	}
	_ = inject.PlannedError{}
}
