package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// BiCGStab is the rank-partitioned resilient BiCGStab on the shard
// substrate (Listing 3 over §3.4's layout). The shadow residual r̂0 lives
// in reliable coordinator memory (§2.1); s, t and q are regenerated every
// iteration, so their losses heal by overwrite; x and g repair exactly
// through the conserved g = b - A x pair (LU diagonal blocks: A may be
// non-SPD), each inverse needing only the rank's halo. A loss in the
// carried direction d falls back to an exact restart from the repaired
// iterate — the BSP supersteps keep no old-q pairing to invert, unlike
// the double-buffered single-node solver.
// With Config.UsePrecond it runs the preconditioned BiCGStab (Listing 6):
// d̂ = M⁻¹ d and ŝ = M⁻¹ s are produced rank-locally (block diagonality,
// no halo), the matvecs become q = A d̂ / t = A ŝ and the update
// x += α d̂ + ω ŝ; g remains the true residual, so the x/g recovery
// relations are untouched, and d̂/ŝ — like s, t and q — are regenerated
// every iteration, healing by overwrite.
type BiCGStab struct {
	base
	x, g, d, q, s, t *shard.Vec
	dhat, shat       *shard.Vec // preconditioned directions (UsePrecond)
	rhat             []float64  // reliable constant memory

	rho   float64
	epsGG float64
}

// NewBiCGStab builds a distributed BiCGStab over the given number of
// ranks. MethodCheckpoint is not supported (no snapshot protocol for the
// non-symmetric recurrence); every other method applies.
func NewBiCGStab(a *sparse.CSR, rhs []float64, ranks int, cfg Config) (*BiCGStab, error) {
	if cfg.Method == core.MethodCheckpoint {
		return nil, fmt.Errorf("dist: BiCGStab does not support %v", cfg.Method)
	}
	s := &BiCGStab{}
	if err := s.setup(a, rhs, ranks, cfg, false); err != nil {
		return nil, err
	}
	s.x = s.sub.AddVector("x")
	s.g = s.sub.AddVector("g")
	s.d = s.sub.AddVector("d")
	s.q = s.sub.AddVector("q")
	s.s = s.sub.AddVector("s")
	s.t = s.sub.AddVector("t")
	s.rhat = make([]float64, a.N)
	s.track(s.x, s.g, s.d, s.q, s.s, s.t)
	if cfg.UsePrecond {
		s.dhat = s.sub.AddVector("dh")
		s.shat = s.sub.AddVector("sh")
		s.track(s.dhat, s.shat)
	}
	s.settle = s.boundary
	return s, nil
}

// SolveBiCGStab runs a rank-partitioned resilient BiCGStab on A x = b.
func SolveBiCGStab(a *sparse.CSR, b []float64, ranks int, cfg Config) (core.Result, []float64, error) {
	s, err := NewBiCGStab(a, b, ranks, cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	return s.Run()
}

// Run executes the solve. It may be called once; the substrate's task
// pool is released on return.
func (s *BiCGStab) Run() (core.Result, []float64, error) {
	defer s.sub.Close()
	s.sub.RT.ResetTimes() // exclude construction-to-launch idle from Table 3
	start := time.Now()
	sub := s.sub
	tol := defaults.TolOr(s.cfg.Tol)
	maxIter := defaults.MaxIterOr(s.cfg.MaxIter, sub.A.N)

	// x = 0: g = r̂0 = d = b.
	sub.RankOp("init", func(r *shard.Rank, p, lo, hi int) {
		copy(s.g.Of(r).Data[lo:hi], sub.B[lo:hi])
		copy(s.d.Of(r).Data[lo:hi], sub.B[lo:hi])
	})
	copy(s.rhat, sub.B)
	s.rho = sub.DotReliable("<g,r>", s.g, s.rhat)
	s.epsGG = s.rho // r̂0 = g

	var it int
	converged := false
	for it = 0; it < maxIter; it++ {
		if !s.land() {
			continue
		}
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			res, x := s.finish(it, false, start, s.x)
			return res, x, core.ErrCancelled
		}
		rel := relFromEps(s.epsGG, sub.Bnorm)
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(it, rel)
		}
		if rel < tol {
			if sub.TrueResidual(s.x) < tol*10 {
				converged = true
				break
			}
			s.restartFromX()
			s.stats.Restarts++
			continue
		}
		s.inject(it)
		if !s.boundary() {
			continue
		}
		sub.Sites.Open(it)

		// Phase 1: [d̂ = M⁻¹d,] q = A d̂ (halo exchange inside) fused with
		// the <q, r̂> reduction.
		qSrc := s.d
		if s.dhat != nil {
			sub.ApplyPrecondOwned("dh", s.d, s.dhat)
			qSrc = s.dhat
		}
		qr := sub.SpMVDotReliable("q,<q,r>", qSrc, s.q, s.rhat)
		if qr == 0 || isNaN(qr) || isNaN(s.rho) {
			if !sub.AnyFault() {
				res, x := s.finish(it, converged, start, s.x)
				return res, x, core.ErrRecurrenceBreakdown
			}
			s.restartFromX()
			s.stats.Restarts++
			continue
		}
		alpha := s.rho / qr

		// Phase 2: s = g - α q, [ŝ = M⁻¹s,] t = A ŝ, <t,t>, <t,s>.
		sub.RankOp("s", func(r *shard.Rank, p, lo, hi int) {
			sparse.XpbyOutRange(s.g.Of(r).Data, -alpha, s.q.Of(r).Data, s.s.Of(r).Data, lo, hi)
		})
		// t = A ŝ fused with <t,t> (and, unpreconditioned, <t,s>: the SpMV
		// input IS s there, so both reductions ride the same pass).
		tSrc := s.s
		var tt, ts float64
		if s.shat != nil {
			sub.ApplyPrecondOwned("sh", s.s, s.shat)
			tSrc = s.shat
			tt = sub.SpMVNorm("t,<t,t>", tSrc, s.t)
			ts = sub.Dot("<t,s>", s.t, s.s)
		} else {
			ts, tt = sub.SpMVDot2("t,<t,s>,<t,t>", s.s, s.t)
		}
		if tt == 0 {
			if isNaN(ts) || sub.AnyFault() {
				s.restartFromX()
				s.stats.Restarts++
				continue
			}
			// Lucky breakdown: s is already the residual of the updated x.
			sub.RankOp("x", func(r *shard.Rank, p, lo, hi int) {
				sparse.AxpyRange(alpha, qSrc.Of(r).Data, s.x.Of(r).Data, lo, hi)
				copy(s.g.Of(r).Data[lo:hi], s.s.Of(r).Data[lo:hi])
			})
			it++
			converged = sub.TrueResidual(s.x) < tol*10
			break
		}
		omega := ts / tt

		// Phase 3: x += α d̂ + ω ŝ ; g = s - ω t fused with <g,r̂> and <g,g>
		// in the same pass over the updated g.
		rhoNew, gg := sub.RankOpDot2("xg,<g,r>,<g,g>", func(r *shard.Rank, p, lo, hi int) (float64, float64) {
			sparse.Axpy2Range(alpha, qSrc.Of(r).Data, omega, tSrc.Of(r).Data, s.x.Of(r).Data, lo, hi)
			return sparse.XpbyDotNormRange(s.s.Of(r).Data, -omega, s.t.Of(r).Data, s.g.Of(r).Data, s.rhat, lo, hi)
		})
		s.epsGG = gg
		// rhoNew == 0 is a breakdown too (a zero ρ carried forward stalls
		// the next α) — unless the residual already converged.
		if core.RhoBoundaryBreakdown(s.rho, omega, rhoNew, gg, sub.Bnorm, tol) {
			if !sub.AnyFault() {
				res, x := s.finish(it, converged, start, s.x)
				return res, x, core.ErrRecurrenceBreakdown
			}
			s.restartFromX()
			s.stats.Restarts++
			continue
		}
		beta := rhoNew / s.rho * alpha / omega

		// Phase 4: d = g + β (d - ω q).
		sub.RankOp("d", func(r *shard.Rank, p, lo, hi int) {
			sparse.XpbyzOutRange(s.g.Of(r).Data, beta, s.d.Of(r).Data, omega, s.q.Of(r).Data, s.d.Of(r).Data, lo, hi)
		})
		s.rho = rhoNew
	}

	res, x := s.finish(it, converged, start, s.x)
	return res, x, nil
}

// restartFromX rebuilds the whole recurrence from the owned iterate
// shards: blank any failed x pages, g = b - A x, r̂0 = g, d = g,
// ρ = <g,g>.
func (s *BiCGStab) restartFromX() {
	blankOwned(s.sub, true, s.x)
	for _, r := range s.sub.Ranks {
		r.Space.ClearAll()
	}
	s.sub.ResidualFromX(s.x, s.g)
	s.sub.Gather(s.g, s.rhat)
	s.sub.RankOp("d=g", func(r *shard.Rank, p, lo, hi int) {
		copy(s.d.Of(r).Data[lo:hi], s.g.Of(r).Data[lo:hi])
	})
	s.rho = s.sub.DotReliable("<g,r>", s.g, s.rhat)
	s.epsGG = s.rho
}

// boundary applies pending losses and resolves them per the method.
// Returns false when a restart consumed the iteration.
func (s *BiCGStab) boundary() bool {
	sub := s.sub
	sub.ApplyPending()
	if !sub.AnyFault() {
		return true
	}
	sub.HealGhosts()
	if !sub.OwnedFault() {
		return true
	}
	switch s.cfg.Method {
	case core.MethodFEIR, core.MethodAFEIR:
		// q, s and t (and d̂/ŝ) are regenerated every iteration: heal by
		// overwrite.
		blankOwned(sub, false, s.q, s.s, s.t)
		if s.dhat != nil {
			blankOwned(sub, false, s.dhat, s.shat)
		}
		dDamaged := false
		for _, r := range sub.Ranks {
			if len(r.OwnedFailed(s.d)) > 0 {
				dDamaged = true
				break
			}
		}
		if recoverXG(sub, s.cfg.Method, s.x, s.g) && !dDamaged {
			return true
		}
		// The carried direction (or related x/g data) is gone: exact
		// restart from the repaired iterate.
		s.restartFromX()
		s.stats.Restarts++
		return false
	case core.MethodLossy:
		if n := sub.LossyInterpolateOwned(s.x); n > 0 {
			s.stats.LossyInterpolations += n
		}
		s.restartFromX()
		s.stats.Restarts++
		return false
	default:
		blankOwned(sub, false, s.x, s.g, s.d, s.q, s.s, s.t)
		if s.dhat != nil {
			blankOwned(sub, false, s.dhat, s.shat)
		}
		return true
	}
}
