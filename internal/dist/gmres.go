package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// GMRES is the rank-partitioned resilient restarted GMRES(m) on the
// shard substrate (Listing 4 over §3.4's layout). Every Arnoldi step is a
// superstep: exchange the newest basis vector's halo, SpMV on owned
// rows, then modified Gram–Schmidt with Partial-backed allreduces. The
// basis is recoverable from the pristine Hessenberg copy
//
//	v_l = (A v_{l-1} - Σ_{k<l} h_{k,l-1} v_k) / h_{l,l-1}
//
// where the only non-local read, A v_{l-1} on the lost page, needs
// exactly the halo the substrate already tracks — so basis repair, like
// the x/g relations, stays rank-local plus one exchange. Damage no
// relation can repair aborts the cycle: lost pages are blanked and the
// next cycle rebuilds the basis from the (repaired or degraded) iterate.
//
// With Config.UsePrecond it runs left-preconditioned GMRES on
// M⁻¹ A x = M⁻¹ b: the protected preconditioned residual z = M⁻¹ g
// starts each cycle, every Arnoldi step applies the block-diagonal M⁻¹ to
// the SpMV scratch rank-locally, and the Hessenberg rebuild gains a
// per-page partial application — preconditioning adds no halo traffic,
// and convergence is still declared on the true residual.
type GMRES struct {
	base
	x, g *shard.Vec
	z    *shard.Vec // preconditioned residual (UsePrecond), else nil
	v    []*shard.Vec
	w    [][]float64   // per-rank unprotected step scratch
	h    *sparse.Dense // working copy, Givens-rotated
	hCpy *sparse.Dense // pristine H, the redundancy store (reliable)

	zeta float64
	// gCurrent reports whether g still equals b - A x: true from
	// ResidualFromX until the end-of-cycle x update. The x/g relations
	// only apply while it holds; afterwards a lost x page is exactly
	// unrecoverable (the old iterate is gone) and is blanked instead.
	gCurrent bool
}

// NewGMRES builds a distributed GMRES(m) over the given number of ranks
// with restart length m (0 means defaults.GMRESRestart). MethodCheckpoint
// is not supported; every other method applies.
func NewGMRES(a *sparse.CSR, rhs []float64, ranks, restart int, cfg Config) (*GMRES, error) {
	if cfg.Method == core.MethodCheckpoint {
		return nil, fmt.Errorf("dist: GMRES does not support %v", cfg.Method)
	}
	s := &GMRES{}
	if err := s.setup(a, rhs, ranks, cfg, false); err != nil {
		return nil, err
	}
	m := defaults.GMRESRestartOr(restart)
	s.x = s.sub.AddVector("x")
	s.g = s.sub.AddVector("g")
	s.v = make([]*shard.Vec, m+1)
	for i := range s.v {
		s.v[i] = s.sub.AddVector(fmt.Sprintf("v%d", i))
	}
	s.w = make([][]float64, len(s.sub.Ranks))
	for i := range s.w {
		s.w[i] = make([]float64, a.N)
	}
	s.h = sparse.NewDense(m+1, m)
	s.hCpy = sparse.NewDense(m+1, m)
	s.track(s.x, s.g)
	if cfg.UsePrecond {
		s.z = s.sub.AddVector("z")
		s.track(s.z)
	}
	s.track(s.v...)
	s.settle = func() bool { return s.boundary(-1) }
	return s, nil
}

// SolveGMRES runs a rank-partitioned resilient GMRES(m) on A x = b.
func SolveGMRES(a *sparse.CSR, b []float64, ranks, restart int, cfg Config) (core.Result, []float64, error) {
	s, err := NewGMRES(a, b, ranks, restart, cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	return s.Run()
}

// Run executes the solve. It may be called once; the substrate's task
// pool is released on return.
func (s *GMRES) Run() (core.Result, []float64, error) {
	defer s.sub.Close()
	s.sub.RT.ResetTimes() // exclude construction-to-launch idle from Table 3
	start := time.Now()
	sub := s.sub
	tol := defaults.TolOr(s.cfg.Tol)
	maxIter := defaults.MaxIterOr(s.cfg.MaxIter, sub.A.N)
	m := len(s.v) - 1 // the restart length

	cs := make([]float64, m)
	sn := make([]float64, m)
	res := make([]float64, m+1)
	y := make([]float64, m)

	totalIt := 0
	converged := false
	for totalIt < maxIter {
		sub.Sites.Close()
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			result, x := s.finish(totalIt, false, start, s.x)
			return result, x, core.ErrCancelled
		}
		s.boundary(-1) // cycle start: no live basis yet
		// Fused residual rebuild: <g,g> rides the g = b - A x pass.
		gg := sub.ResidualFromXDot(s.x, s.g)
		s.gCurrent = true
		trueRel := math.Sqrt(math.Max(gg, 0)) / sub.Bnorm
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(totalIt, trueRel)
		}
		if trueRel < tol {
			converged = true
			break
		}
		// The Arnoldi start vector: g, or the preconditioned residual
		// z = M⁻¹ g (rank-local full overwrite, so the rebuild heals z).
		src := s.g
		if s.z != nil {
			sub.ApplyPrecondOwned("z", s.g, s.z)
			src = s.z
			s.zeta = math.Sqrt(math.Max(sub.Dot("<z,z>", s.z, s.z), 0))
		} else {
			s.zeta = math.Sqrt(gg)
		}
		zeta := s.zeta
		sub.RankOp("v0", func(r *shard.Rank, p, lo, hi int) {
			gd := src.Of(r).Data
			vd := s.v[0].Of(r).Data
			for i := lo; i < hi; i++ {
				vd[i] = gd[i] / zeta
			}
		})
		for i := range res {
			res[i] = 0
		}
		res[0] = s.zeta

		steps := 0
		aborted := false
		for l := 0; l < m && totalIt < maxIter; l++ {
			s.inject(totalIt)
			if !s.boundary(l) { // Arnoldi-step boundary: repair before use
				aborted = true
				break
			}
			sub.Sites.Open(totalIt)
			// w = A v_l on owned rows, after a halo exchange of v_l;
			// preconditioned, w = M⁻¹ A v_l with the block-diagonal M⁻¹
			// applied rank-locally in place.
			sub.Exchange(s.v[l], false)
			sub.RankOp("w", func(r *shard.Rank, p, lo, hi int) {
				sub.A.MulVecRange(s.v[l].Of(r).Data, s.w[r.ID], lo, hi)
				if s.z != nil {
					_ = sub.Pre.ApplyBlock(p, s.w[r.ID], s.w[r.ID])
				}
			})
			// Modified Gram-Schmidt: each h_{k,l} is a Partial-backed
			// allreduce followed by an owned-range axpy; the LAST axpy is
			// fused with the normalisation norm <w,w>, saving one pass.
			var wn2 float64
			for k := 0; k <= l; k++ {
				hk := sub.DotMixed("<w,v>", s.w, s.v[k])
				s.h.Set(k, l, hk)
				s.hCpy.Set(k, l, hk) // redundancy store
				if k == l {
					wn2 = sub.RankOpDot("w-hv,<w,w>", func(r *shard.Rank, p, lo, hi int) float64 {
						return sparse.AxpyDotRange(-hk, s.v[k].Of(r).Data, s.w[r.ID], lo, hi)
					})
				} else {
					sub.RankOp("w-hv", func(r *shard.Rank, p, lo, hi int) {
						sparse.AxpyRange(-hk, s.v[k].Of(r).Data, s.w[r.ID], lo, hi)
					})
				}
			}
			wn := math.Sqrt(math.Max(wn2, 0))
			s.h.Set(l+1, l, wn)
			s.hCpy.Set(l+1, l, wn)
			steps = l + 1
			totalIt++
			if wn != 0 {
				sub.RankOp("v+", func(r *shard.Rank, p, lo, hi int) {
					vd := s.v[l+1].Of(r).Data
					for i := lo; i < hi; i++ {
						vd[i] = s.w[r.ID][i] / wn
					}
				})
			}
			for k := 0; k < l; k++ {
				hkl, hk1l := s.h.At(k, l), s.h.At(k+1, l)
				s.h.Set(k, l, cs[k]*hkl+sn[k]*hk1l)
				s.h.Set(k+1, l, -sn[k]*hkl+cs[k]*hk1l)
			}
			hll, hl1l := s.h.At(l, l), s.h.At(l+1, l)
			rr := math.Hypot(hll, hl1l)
			if rr == 0 {
				cs[l], sn[l] = 1, 0
			} else {
				cs[l], sn[l] = hll/rr, hl1l/rr
			}
			s.h.Set(l, l, rr)
			s.h.Set(l+1, l, 0)
			res[l+1] = -sn[l] * res[l]
			res[l] = cs[l] * res[l]
			if s.cfg.OnIteration != nil {
				s.cfg.OnIteration(totalIt, math.Abs(res[l+1])/sub.Bnorm)
			}
			if math.Abs(res[l+1])/s.zeta < tol/10 || wn == 0 {
				break
			}
		}
		if aborted {
			// The cycle's basis is compromised: restart it from the
			// (repaired or blanked) iterate without applying the update.
			// The aborted step still consumes an iteration so the solve
			// makes forward progress (and iteration-keyed injection hooks
			// don't re-fire at a frozen count).
			s.stats.Restarts++
			totalIt++
			continue
		}
		ok := s.boundary(steps)
		sub.Sites.Close()
		if !ok {
			s.stats.Restarts++
			totalIt++
			continue
		}
		// y = R⁻¹ (rotated rhs); x += Σ y_l v_l.
		breakdown := false
		for i := steps - 1; i >= 0; i-- {
			sum := res[i]
			for j := i + 1; j < steps; j++ {
				sum -= s.h.At(i, j) * y[j]
			}
			d := s.h.At(i, i)
			if d == 0 {
				breakdown = true
				break
			}
			y[i] = sum / d
		}
		if breakdown {
			result, x := s.finish(totalIt, converged, start, s.x)
			return result, x, core.ErrRecurrenceBreakdown
		}
		sub.RankOp("x+", func(r *shard.Rank, p, lo, hi int) {
			xd := s.x.Of(r).Data
			for l := 0; l < steps; l++ {
				sparse.AxpyRange(y[l], s.v[l].Of(r).Data, xd, lo, hi)
			}
		})
		s.gCurrent = false
	}

	result, x := s.finish(totalIt, converged, start, s.x)
	return result, x, nil
}

// boundary applies pending losses with all workers quiescent and resolves
// every failed page before the next step reads it: exact repairs for
// FEIR/AFEIR, iterate interpolation for Lossy, blank pages otherwise.
// steps is the number of live basis vectors minus one (-1 at cycle start:
// nothing live but x). Returns false when the cycle must be aborted.
func (s *GMRES) boundary(steps int) bool {
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
		s.repair(steps)
	case core.MethodLossy:
		if n := sub.LossyInterpolateOwned(s.x); n > 0 {
			s.stats.LossyInterpolations += n
		}
	}
	// Unused basis slots will be overwritten before any read: blank them
	// (at cycle start, steps is -1 and that is the whole basis).
	for l := steps + 1; l < len(s.v); l++ {
		blankOwned(sub, false, s.v[l])
	}
	if !sub.OwnedFault() {
		return true
	}
	// Unrecoverable related data: blank it and abort the cycle (the next
	// cycle rebuilds the basis from x anyway).
	vs := []*shard.Vec{s.x, s.g}
	if s.z != nil {
		vs = append(vs, s.z)
	}
	blankOwned(sub, true, append(vs, s.v...)...)
	return false
}

// repair runs the §3.1.3 relations to a fixpoint across ranks: the x/g
// pair, v_0 = g/ζ, and the Hessenberg redundancy for v_1..v_steps, each
// basis rebuild importing the one v_{l-1} halo it needs.
func (s *GMRES) repair(steps int) {
	sub := s.sub
	if s.gCurrent {
		recoverXG(sub, s.cfg.Method, s.x, s.g)
		if s.z != nil {
			// z = M⁻¹ g by rank-local partial application (§3.2).
			sub.RecoverPrecondOwned(s.cfg.Method, "z", s.z, s.g)
		}
	} else {
		// g is stale (x was updated since the last residual rebuild): a
		// lost x page has no relation left and is blanked; the stale g
		// (and z) is about to be overwritten anyway.
		blankOwned(sub, true, s.x)
		blankOwned(sub, false, s.g)
		if s.z != nil {
			blankOwned(sub, false, s.z)
		}
	}
	// v_0 = z/ζ preconditioned, g/ζ otherwise.
	v0src := s.g
	if s.z != nil {
		v0src = s.z
	}
	if steps >= 0 && s.zeta != 0 {
		zeta := s.zeta
		sub.Recover(s.cfg.Method, "v0", func(r *shard.Rank) {
			for _, p := range r.OwnedFailed(s.v[0]) {
				if v0src.Of(r).Failed(p) {
					continue
				}
				lo, hi := sub.Layout.Range(p)
				gd := v0src.Of(r).Data
				vd := s.v[0].Of(r).Data
				for i := lo; i < hi; i++ {
					vd[i] = gd[i] / zeta
				}
				s.v[0].Of(r).MarkRecovered(p)
				r.Stats.RecoveredForward++
			}
		})
	}
	for l := 1; l <= steps; l++ {
		vl := s.v[l]
		damaged := false
		for _, r := range sub.Ranks {
			if len(r.OwnedFailed(vl)) > 0 {
				damaged = true
				break
			}
		}
		if !damaged {
			continue
		}
		hll := s.hCpy.At(l, l-1)
		if hll == 0 {
			continue
		}
		l := l
		// A fresh strict exchange of v_{l-1}: its halo may postdate the
		// damage, and a failed owner page must veto the rebuild.
		sub.Exchange(s.v[l-1], true)
		sub.Recover(s.cfg.Method, fmt.Sprintf("v%d", l), func(r *shard.Rank) {
			prev := s.v[l-1].Of(r)
			for _, p := range r.OwnedFailed(vl) {
				if prev.AnyFailedInPages(sub.Conn[p]) {
					continue
				}
				bad := false
				for k := 0; k < l; k++ {
					if s.v[k].Of(r).Failed(p) {
						bad = true
						break
					}
				}
				if bad {
					continue
				}
				lo, hi := sub.Layout.Range(p)
				buf := make([]float64, hi-lo)
				sub.A.MulVecRangeExcludingCols(prev.Data, buf, lo, hi, 0, 0)
				if s.z != nil {
					// Left preconditioning: the Arnoldi operator is
					// M⁻¹ A; the rebuilt rows get the rank-local
					// partial application too.
					if sub.Pre.SolveBlockInPlace(p, buf) != nil {
						continue
					}
					r.Stats.PrecondPartialApplies++
				}
				for k := 0; k < l; k++ {
					hk := s.hCpy.At(k, l-1)
					if hk == 0 {
						continue
					}
					vk := s.v[k].Of(r).Data
					for i := lo; i < hi; i++ {
						buf[i-lo] -= hk * vk[i]
					}
				}
				vd := vl.Of(r).Data
				for i := lo; i < hi; i++ {
					vd[i] = buf[i-lo] / hll
				}
				vl.Of(r).MarkRecovered(p)
				r.Stats.RecoveredForward++
			}
		})
	}
	sub.HealGhosts()
}
