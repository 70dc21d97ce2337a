package registry

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// inlineSweep is the table inlineMaxOps was placed from: operators on both
// sides of the bound, in every kernel shadow, with and without the
// block-Jacobi apply. ops is IterOps' estimate and inline the path the
// registry must choose; BenchmarkInlineVsPool times both paths on each row.
var inlineSweep = []struct {
	name    string
	gen     func() *sparse.CSR
	method  core.Method
	precond bool
	ops     int64
	inline  bool
}{
	{"thermal2-4096-afeir", func() *sparse.CSR { return matgen.Thermal2Analogue(4096) }, core.MethodAFEIR, false, 61184, true},
	{"rspd8-4096-ideal", func() *sparse.CSR { return matgen.RandomSPD(4096, 8, 1.5, 7) }, core.MethodIdeal, false, 114636, true},
	{"thermal2-8280-afeir", func() *sparse.CSR { return matgen.Thermal2Analogue(8192) }, core.MethodAFEIR, false, 123836, true},
	{"poisson27-16-afeir", func() *sparse.CSR { return matgen.Poisson3D27(16, 16, 16) }, core.MethodAFEIR, false, 138296, true},
	{"thermal2-12320-afeir", func() *sparse.CSR { return matgen.Thermal2Analogue(12288) }, core.MethodAFEIR, false, 184356, true},
	{"thermal2-2070-feir-precond", func() *sparse.CSR { return matgen.Thermal2Analogue(2048) }, core.MethodFEIR, true, 204533, false},
	{"rspd8-8192-ideal", func() *sparse.CSR { return matgen.RandomSPD(8192, 8, 1.5, 7) }, core.MethodIdeal, false, 229308, false},
	{"rspd24-4096-ideal", func() *sparse.CSR { return matgen.RandomSPD(4096, 24, 1.5, 7) }, core.MethodIdeal, false, 245144, false},
	{"thermal2-16384-afeir", func() *sparse.CSR { return matgen.Thermal2Analogue(16384) }, core.MethodAFEIR, false, 245248, false},
	{"consph-4096-feir", func() *sparse.CSR { return matgen.ConsphAnalogue(4096) }, core.MethodFEIR, false, 537116, false},
	{"thermal2-4096-feir-precond", func() *sparse.CSR { return matgen.Thermal2Analogue(4096) }, core.MethodFEIR, true, 367792, false},
	{"poisson27-32-afeir", func() *sparse.CSR { return matgen.Poisson3D27(32, 32, 32) }, core.MethodAFEIR, false, 1158264, false},
}

// BenchmarkInlineVsPool solves every row of inlineSweep on one warm
// instance per path — the shared pool of two workers, and a runtime with
// no workers — alternating the two solve by solve (the host drifts between
// speed levels), and reports each path's µs per iteration, alone on the
// machine: the measurement that says where the bound must not lose. What
// it gains under load (a pool shared with other dispatchers) is the
// benchmark's serve-mix workload, not this.
func BenchmarkInlineVsPool(b *testing.B) {
	for _, row := range inlineSweep {
		a := row.gen()
		octx := NewOperatorContext(row.name, a, 0)
		rhs := matgen.RandomVector(a.N, 1)
		ops, _ := octx.IterOps(row.precond)
		b.Run(fmt.Sprintf("%s/ops=%d", row.name, ops), func(b *testing.B) {
			paths := []struct {
				name string
				rt   *taskrt.Runtime
				s    *core.CG
				us   float64
			}{{name: "pool", rt: taskrt.Shared(2)}, {name: "inline", rt: taskrt.NewInline()}}
			for i := range paths {
				s, err := core.NewCG(a, rhs, core.Config{
					Method: row.method, UsePrecond: row.precond, Tol: 1e-8,
					RT: paths[i].rt, Blocks: octx.Blocks(true),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil { // builds the prepared graphs
					b.Fatal(err)
				}
				paths[i].s = s
			}
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range paths {
					res, err := paths[j].s.Run()
					if err != nil || !res.Converged {
						b.Fatalf("%s: converged=%v err=%v", paths[j].name, res.Converged, err)
					}
					paths[j].us += float64(res.Elapsed.Microseconds())
					iters = res.Iterations
				}
			}
			for _, p := range paths {
				b.ReportMetric(p.us/float64(b.N*iters), p.name+"-µs/iteration")
			}
			b.ReportMetric(paths[0].us/paths[1].us, "pool/inline")
		})
	}
}
