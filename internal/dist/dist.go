// Package dist implements the distributed CG of §3.4 — the paper's
// hybrid runs — as a thin recurrence over the rank-sharded substrate of
// internal/shard. The substrate owns shard layout, per-rank fault
// domains, halo computation/exchange and allreduce-style scalar reduction
// (all as task graphs on one shared internal/taskrt pool); the solver
// here owns only the recurrence and its recovery policy, reusing the same
// core.Relations the single-node solvers apply.
//
// Resilience follows the single-node schemes: FEIR/AFEIR repair lost
// pages exactly through the g = b - A x / x = A⁻¹(b - g) relations and
// the direction's d = A⁻¹ q (inverse repairs need only the halo, so
// recovery stays rank-local plus one exchange — the paper's observation
// that the recovery blast radius is bounded by the stencil; q itself is
// rewritten by the next SpMV before a read) and take the Lossy step for
// a loss those relations cannot rebuild (§2.4), Lossy interpolates the
// iterate and restarts, Checkpoint rolls back to a periodic global
// snapshot, and the remaining methods blank lost pages and keep running.
package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// Config parametrises a distributed solve: the single-node configuration
// itself, so a knob is written once from flag to rank. The rank path
// honours every field but the three single-node ones — ABFT,
// ExpectedMTBE and Disk — which NewCG rejects by name. Like core, it
// repairs only once a DUE has been signalled (AnyFault at its boundary).
// Workers 0 means one pool worker per rank here.
type Config = core.Config

// fixpoint runs a rank-local repair across ranks until no owned page of
// vs is failed, a pass makes no progress, or four passes ran. Each pass
// starts with a strict exchange of halo (the vector the relations read
// across ranks) so the local relation guards see the global failure map;
// repair then runs rank-parallel per the method's discipline and reports
// whether it rebuilt a page. Returns false when pages of vs stay failed.
func fixpoint(sub *shard.Substrate, method core.Method, label string, halo *shard.Vec, vs []*shard.Vec, repair func(r *shard.Rank) bool) bool {
	failed := func() bool {
		for _, r := range sub.Ranks {
			for _, v := range vs {
				if len(r.OwnedFailed(v)) > 0 {
					return true
				}
			}
		}
		return false
	}
	for pass := 0; pass < 4 && failed(); pass++ {
		sub.Exchange(halo, true)
		progress := make([]bool, len(sub.Ranks))
		sub.Recover(method, label, func(r *shard.Rank) { progress[r.ID] = repair(r) })
		any := false
		for _, p := range progress {
			any = any || p
		}
		if !any {
			break
		}
	}
	sub.HealGhosts()
	return !failed()
}

// recoverXG runs the residual/iterate relations to a fixpoint across
// ranks: g pages by the forward g = b - A x, x pages by the rank-local
// inverse over the diagonal block plus the halo. Returns false when x or
// g pages stay unrecovered.
func recoverXG(sub *shard.Substrate, method core.Method, x, g *shard.Vec) bool {
	return fixpoint(sub, method, "xg", x, []*shard.Vec{x, g}, func(r *shard.Rank) bool {
		progress := false
		gV := engine.Vec{V: g.Of(r)}
		xV := engine.Vec{V: x.Of(r)}
		for _, p := range r.OwnedFailed(g) {
			if r.Rel.ForwardResidual(gV, 0, xV, 0, p) {
				progress = true
			}
		}
		for _, p := range r.OwnedFailed(x) {
			if g.Of(r).Failed(p) {
				continue
			}
			if r.Rel.InverseIterate(xV, 0, gV, 0, p) {
				progress = true
			}
		}
		return progress
	})
}

// recoverD runs the direction's inverse relation to a fixpoint across
// ranks: a d page from A_pp d_p = q_p - Σ_{j≠p} A_pj d_j over the
// diagonal block plus the halo (Table 1, row 1), which needs its own q
// page and every connected d page intact. Returns false when d pages
// stay unrecovered; q is left as found.
func recoverD(sub *shard.Substrate, method core.Method, d, q *shard.Vec) bool {
	return fixpoint(sub, method, "d", d, []*shard.Vec{d}, func(r *shard.Rank) bool {
		progress := false
		dV := engine.Vec{V: d.Of(r)}
		qV := engine.Vec{V: q.Of(r)}
		for _, p := range r.OwnedFailed(d) {
			if r.Rel.InverseDirection(dV, 0, qV, 0, p) {
				progress = true
			}
		}
		return progress
	})
}

// blankOwned remaps and clears every failed owned page of the vectors,
// counting them as unrecovered when count is true.
func blankOwned(sub *shard.Substrate, count bool, vs ...*shard.Vec) {
	for _, r := range sub.Ranks {
		for _, v := range vs {
			for _, p := range r.OwnedFailed(v) {
				v.Of(r).Remap(p)
				v.Of(r).MarkRecovered(p)
				if count {
					r.Stats.Unrecovered++
				}
			}
		}
	}
}

func relFromEps(eps, bnorm float64) float64 {
	return math.Sqrt(math.Max(eps, 0)) / bnorm
}

// CG is the rank-partitioned resilient Conjugate Gradient on the shard
// substrate. With Config.UsePrecond it runs the paper's block-Jacobi PCG:
// the protected preconditioned residual z = M⁻¹ g is rank-local to
// produce (block diagonality) and rank-local to recover (partial
// application from g, §3.2), so preconditioning adds no halo traffic.
type CG struct {
	sub      *shard.Substrate
	cfg      Config
	stats    core.Stats // coordinator-side counters (restarts, rollbacks, …)
	dynamic  []*pagemem.Vector
	injectFn func(it int, ranks []*shard.Rank) // see SetInject

	x, g, d, q *shard.Vec
	z          *shard.Vec // preconditioned residual (UsePrecond), else nil

	epsGG          float64
	rho            float64 // <z, g> (preconditioned only)
	beta           float64
	restartPending bool

	// The steady-state page bodies, bound once per Run and handed to the
	// substrate's prepared rank tasks every iteration: dStep is the
	// d-update, xgStep the x/g update with its <g,g> partial. They read
	// stepBeta/stepAlpha, so an iteration allocates nothing.
	dStep               func(r *shard.Rank, p, lo, hi int)
	xgStep              func(r *shard.Rank, p, lo, hi int) float64
	stepBeta, stepAlpha float64

	haveCkpt     bool
	ckX, ckD     []float64
	ckBeta       float64
	lastCkptIter int
}

// NewCG builds a distributed CG over the given number of ranks.
func NewCG(a *sparse.CSR, rhs []float64, ranks int, cfg Config) (*CG, error) {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"ABFT", cfg.ABFT},
		{"ExpectedMTBE", cfg.ExpectedMTBE != 0},
		{"Disk", cfg.Disk != nil},
	} {
		if f.set {
			return nil, fmt.Errorf("dist: %s is single-node only (drop it or -ranks)", f.name)
		}
	}
	sub, err := shard.NewOpts(a, rhs, ranks, cfg.PageDoubles, cfg.Workers, true,
		shard.Options{RT: cfg.RT, Blocks: cfg.Blocks, Priority: cfg.TaskPriority})
	if err != nil {
		return nil, err
	}
	if cfg.UsePrecond {
		if err := sub.EnablePrecond(); err != nil {
			sub.Close()
			return nil, err
		}
	}
	s := &CG{sub: sub, cfg: cfg}
	s.x = sub.AddVector("x")
	s.g = sub.AddVector("g")
	s.d = sub.AddVector("d")
	s.q = sub.AddVector("q")
	vs := []*shard.Vec{s.x, s.g, s.d, s.q}
	if cfg.UsePrecond {
		s.z = sub.AddVector("z")
		vs = append(vs, s.z)
	}
	for _, v := range vs {
		s.dynamic = append(s.dynamic, v.R...)
	}
	return s, nil
}

// SolveCG runs a rank-partitioned resilient CG on A x = b with the given
// number of ranks. It returns the aggregate result and the solution.
func SolveCG(a *sparse.CSR, b []float64, ranks int, cfg Config) (core.Result, []float64, error) {
	s, err := NewCG(a, b, ranks, cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	return s.Run()
}

// Spaces returns the per-rank fault domains (the injection surface).
func (s *CG) Spaces() []*pagemem.Space { return s.sub.Spaces() }

// DynamicVectors lists every rank copy of the protected vectors (§5.3):
// injections may land in owned shards, halo pages or unused ghost pages.
func (s *CG) DynamicVectors() []*pagemem.Vector { return s.dynamic }

// RankStats returns a snapshot of each rank's resilience counters.
func (s *CG) RankStats() []core.Stats { return s.sub.RankStats() }

// Reductions reports how many global reduction supersteps the substrate
// performed — the communication metric of a distributed solve. Valid
// after Run returned.
func (s *CG) Reductions() int64 { return s.sub.Reductions() }

// SetInject installs fn to be called once per iteration with the ranks,
// after the convergence check and before the iteration's fault boundary —
// the hook deterministic experiments use to drive injections into chosen
// fault domains and pages. nil removes it.
func (s *CG) SetInject(fn func(it int, ranks []*shard.Rank)) { s.injectFn = fn }

// SetSite installs (or clears) the fault-site hook (DESIGN §12), entered
// before every rank superstep of an iteration's steady state.
func (s *CG) SetSite(fn func(iteration int, task string, pages int)) { s.sub.Sites.Hook = fn }

// land closes the fault sites and applies, with repairs, the losses they
// fired since the last boundary. The loop head calls it before the
// convergence check and finish before the result, so no loss outlives
// the solve. False when a restart-style recovery consumed the iteration.
func (s *CG) land() bool {
	s.sub.Sites.Close()
	return !s.sub.Pending() || s.boundary()
}

func (s *CG) finish(it int, converged bool, start time.Time) (core.Result, []float64) {
	s.land()
	xg := make([]float64, s.sub.A.N)
	s.sub.Gather(s.x, xg)
	st := s.sub.Stats()
	st.Add(s.stats)
	return core.Result{
		Converged:   converged,
		Iterations:  it,
		RelResidual: s.sub.TrueResidual(s.x),
		Elapsed:     time.Since(start),
		Stats:       st,
		WorkerTimes: s.sub.RT.WorkerTimes(),
	}, xg
}

// Run executes the solve. It may be called once; the substrate's task
// pool is released on return.
func (s *CG) Run() (core.Result, []float64, error) {
	defer s.sub.Close()
	s.sub.RT.ResetTimes() // exclude construction-to-launch idle from Table 3
	start := time.Now()
	sub := s.sub
	tol := defaults.TolOr(s.cfg.Tol)
	maxIter := defaults.MaxIterOr(s.cfg.MaxIter, sub.A.N)

	s.dStep, s.xgStep = s.updateD, s.updateXG

	// x = 0, g = b, d = g (or z = M⁻¹g) via the beta=0 first step.
	sub.RankOp("init", func(r *shard.Rank, p, lo, hi int) {
		copy(s.g.Of(r).Data[lo:hi], sub.B[lo:hi])
	})
	if s.z != nil {
		sub.ApplyPrecondOwned("z", s.g, s.z)
		s.rho = sub.Dot("<z,g>", s.z, s.g)
	}
	s.epsGG = sub.Dot("gg", s.g, s.g)
	s.beta = 0
	s.restartPending = true

	var it int
	converged := false
	for it = 0; it < maxIter; it++ {
		if !s.land() {
			continue
		}
		if s.cfg.Cancelled != nil && s.cfg.Cancelled() {
			res, x := s.finish(it, false, start)
			return res, x, core.ErrCancelled
		}
		rel := relFromEps(s.epsGG, sub.Bnorm)
		if s.cfg.OnIteration != nil {
			s.cfg.OnIteration(it, rel)
		}
		if rel < tol {
			ok, err := core.AcceptTrueResidual(sub.TrueResidual(s.x), tol)
			if ok {
				converged = true
				break
			}
			if err != nil {
				res, x := s.finish(it, false, start)
				return res, x, err
			}
			s.restartFromX() // recurrence lied: rebuild and keep going
			s.stats.Restarts++
			continue
		}
		if s.injectFn != nil {
			s.injectFn(it, sub.Ranks)
		}
		if !s.boundary() {
			continue // restart-style recovery consumed the iteration
		}
		sub.Sites.Open(it)
		if s.cfg.Method == core.MethodCheckpoint && (it-s.lastCkptIter >= defaults.CheckpointIntervalOr(s.cfg.CheckpointInterval) || !s.haveCkpt) {
			s.writeCheckpoint(it)
		}

		// d = src + beta d on owned pages, restarted with beta = 0.
		s.stepBeta = s.beta
		if s.restartPending {
			s.stepBeta = 0
		}
		sub.RankOp("d", s.dStep)
		// Halo exchange of d, then the fused q = A d with the <d,q>
		// reduction riding the SpMV's pass — the §3.4 communication/
		// computation pattern with one superstep fewer.
		dq := sub.SpMVDot("q,<d,q>", s.d, s.q)
		num := s.epsGG
		if s.z != nil {
			num = s.rho
		}
		s.stepAlpha = 0
		if dq != 0 && !math.IsNaN(dq) && !math.IsNaN(num) {
			s.stepAlpha = num / dq
		}

		// x += alpha d ; g -= alpha q fused with <g,g> ; [z = M⁻¹g ; <z,g>].
		gg := sub.RankOpDot("xg,<g,g>", s.xgStep)
		if s.z != nil {
			sub.ApplyPrecondOwned("z", s.g, s.z)
			zg := sub.Dot("<z,g>", s.z, s.g)
			if s.rho != 0 && !math.IsNaN(zg) {
				s.beta = zg / s.rho
			} else {
				s.beta = 0
			}
			s.rho = zg
		} else if s.epsGG != 0 && !math.IsNaN(gg) {
			s.beta = gg / s.epsGG
		} else {
			s.beta = 0
		}
		s.epsGG = gg
		s.restartPending = false
	}

	res, x := s.finish(it, converged, start)
	return res, x, nil
}

// updateD is the d = src + stepBeta·d page body, src the (preconditioned)
// residual; stepBeta 0 copies src.
//
//due:hotpath
func (s *CG) updateD(r *shard.Rank, p, lo, hi int) {
	src := s.g
	if s.z != nil {
		src = s.z
	}
	if s.stepBeta == 0 {
		copy(s.d.Of(r).Data[lo:hi], src.Of(r).Data[lo:hi])
	} else {
		sparse.XpbyRange(src.Of(r).Data, s.stepBeta, s.d.Of(r).Data, lo, hi)
	}
}

// updateXG is the x += stepAlpha·d, g -= stepAlpha·q page body, returning
// the page's <g,g> partial.
//
//due:hotpath
func (s *CG) updateXG(r *shard.Rank, p, lo, hi int) float64 {
	sparse.AxpyRange(s.stepAlpha, s.d.Of(r).Data, s.x.Of(r).Data, lo, hi)
	return sparse.AxpyDotRange(-s.stepAlpha, s.q.Of(r).Data, s.g.Of(r).Data, lo, hi)
}

// restartFromX rebuilds the whole recurrence from the owned iterate
// shards: blank any failed x pages, g = b - A x (with an x halo
// exchange), d rebuilt from g on the next iteration via beta = 0.
func (s *CG) restartFromX() {
	blankOwned(s.sub, true, s.x)
	for _, r := range s.sub.Ranks {
		r.Space.ClearAll()
	}
	s.sub.ResidualFromX(s.x, s.g)
	if s.z != nil {
		s.sub.ApplyPrecondOwned("z", s.g, s.z)
		s.rho = s.sub.Dot("<z,g>", s.z, s.g)
	}
	s.epsGG = s.sub.Dot("gg", s.g, s.g)
	s.restartPending = true
}

// writeCheckpoint snapshots the global iterate and direction (§4.2: "the
// minimum to allow rolling back") plus the β scalar.
func (s *CG) writeCheckpoint(it int) {
	if s.ckX == nil {
		s.ckX = make([]float64, s.sub.A.N)
		s.ckD = make([]float64, s.sub.A.N)
	}
	s.sub.Gather(s.x, s.ckX)
	s.sub.Gather(s.d, s.ckD)
	s.ckBeta = s.beta
	s.haveCkpt = true
	s.lastCkptIter = it
	s.stats.CheckpointsWritten++
}

// rollback restores the snapshot (or restarts from scratch when none
// exists) and rebuilds the derived state.
func (s *CG) rollback() {
	for _, r := range s.sub.Ranks {
		r.Space.ClearAll()
	}
	if !s.haveCkpt {
		s.sub.RankOp("zero", func(r *shard.Rank, p, lo, hi int) {
			xd := s.x.Of(r).Data
			for i := lo; i < hi; i++ {
				xd[i] = 0
			}
		})
		s.restartFromX()
	} else {
		s.sub.Scatter(s.ckX, s.x)
		s.sub.Scatter(s.ckD, s.d)
		s.sub.ResidualFromX(s.x, s.g)
		if s.z != nil {
			s.sub.ApplyPrecondOwned("z", s.g, s.z)
			s.rho = s.sub.Dot("<z,g>", s.z, s.g)
		}
		s.epsGG = s.sub.Dot("gg", s.g, s.g)
		s.beta = s.ckBeta
		s.restartPending = false
	}
	s.stats.Rollbacks++
}

// boundary applies pending losses on every rank and resolves them per the
// configured method. Returns false when a restart/rollback consumed the
// iteration. Leaving a boundary no page is failed (the phases themselves
// run unguarded, like the single-node GMRES discipline).
func (s *CG) boundary() bool {
	sub := s.sub
	sub.ApplyPending(s.cfg.Method)
	if !sub.AnyFault() {
		return true
	}
	sub.HealGhosts() // ghost damage heals by re-import
	if !sub.OwnedFault() {
		return true
	}
	switch s.cfg.Method {
	case core.MethodFEIR, core.MethodAFEIR:
		if s.exactRecover() {
			return true
		}
		s.lossyRestart() // §2.4: no relation rebuilds the page
		return false
	case core.MethodLossy:
		s.lossyRestart()
		return false
	case core.MethodCheckpoint:
		s.rollback()
		return false
	default:
		// Blank-page forward recovery: keep running.
		if s.z != nil {
			blankOwned(sub, false, s.z)
		}
		blankOwned(sub, false, s.x, s.g, s.d, s.q)
		return true
	}
}

// exactRecover runs the FEIR relations across ranks to a fixpoint: d
// pages by the rank-local inverse A_pp d_p = q_p - Σ_{j≠p} A_pj d_j over
// the halo (q = A d still holds at the boundary), g pages by the forward
// relation g = b - A x, x pages by the rank-local inverse over the halo.
// q is blanked: the next SpMV overwrites every owned row before a read.
// A d page the inverse cannot rebuild (its q page lost too, or a
// connected d page still failed) falls back to a β = 0 direction restart,
// counted in Restarts. Returns false if an x or g page stays unrecovered.
func (s *CG) exactRecover() bool {
	if !s.restartPending && !recoverD(s.sub, s.cfg.Method, s.d, s.q) {
		s.restartPending = true
		s.stats.Restarts++
	}
	// With a restart pending d is not read: blanking it is exact.
	blankOwned(s.sub, false, s.d, s.q)
	if !recoverXG(s.sub, s.cfg.Method, s.x, s.g) {
		return false
	}
	if s.z != nil {
		// z = M⁻¹ g by rank-local partial application (§3.2); g's owned
		// pages are all current after recoverXG succeeded.
		s.sub.RecoverPrecondOwned(s.cfg.Method, "z", s.z, s.g)
	}
	return !s.sub.OwnedFault()
}

// lossyRestart interpolates lost iterate pages with the block-Jacobi step
// on the gathered iterate and restarts (§4.3): MethodLossy's reaction to
// any loss, and FEIR's and AFEIR's to one exactRecover cannot repair.
func (s *CG) lossyRestart() {
	if n := s.sub.LossyInterpolateOwned(s.x); n > 0 {
		s.stats.LossyInterpolations += n
	}
	s.restartFromX()
	s.stats.Restarts++
}
