package experiments

import (
	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/shard"
)

// ValidateDistributed runs the functional rank-sharded CG on a small
// 27-point stencil with the given method and error count, optionally
// block-Jacobi preconditioned, confirming the §3.4 protocol converges:
// errors DUEs are injected into owned iterate pages of rotating ranks. It
// is the correctness anchor behind the modelled Figure 5 curves.
func ValidateDistributed(method core.Method, ranks, errors int, precond bool, opts Options) (core.Result, error) {
	nx := 16
	a := matgen.Poisson3D27(nx, nx, nx)
	b := matgen.Ones(a.N)
	opts.PageDoubles = 128 // small pages so a 16³ grid spans many pages
	cfg := registry.Config{
		Config: core.Config{
			Method:      method,
			PageDoubles: opts.PageDoubles,
			Tol:         opts.tol(),
			MaxIter:     20000,
			UsePrecond:  precond,
			Blocks:      factors(a, opts, true),
		},
		Ranks: ranks,
	}
	if errors > 0 {
		injected := 0
		cfg.RankInject = func(it int, rs []*shard.Rank) {
			if injected < errors && it > 0 && it%5 == 0 {
				r := rs[(it/5)%len(rs)]
				r.Space.VectorByName("x").Poison((r.PLo + r.PHi) / 2)
				injected++
			}
		}
	}
	inst, err := registry.New("cg", a, b, cfg)
	if err != nil {
		return core.Result{}, err
	}
	return inst.Run()
}
