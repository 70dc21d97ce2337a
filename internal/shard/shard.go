// Package shard is the rank-sharded substrate of §3.4: a functional model
// of the paper's MPI+tasks hybrid, on which internal/dist runs CG as a
// thin recurrence. It owns everything that is not the recurrence itself —
// shard layout (contiguous page ranges per rank), per-rank fault domains,
// halo computation from the page connectivity of the matrix, halo
// exchange, allreduce-style scalar reduction and the FEIR/AFEIR recovery
// scheduling — expressed as engine task graphs on one shared
// internal/taskrt pool.
//
// Data model: every rank holds full-length, globally indexed vectors in
// its own pagemem.Space. The rank's authoritative data lives in its owned
// page range [PLo, PHi); the halo pages listed in Rank.Halo act as ghost
// cells refreshed by Exchange before each SpMV; all other pages are never
// read. This keeps one indexing convention across the whole repository —
// the single-node engine operations, the Table 1 recovery relations of
// core.Relations and the distributed substrate all address the same
// global pages — at the cost of ghost storage proportional to the global
// size, which is what the hand-rolled predecessor paid for its ghost
// buffers too.
//
// Fault discipline: phases run unguarded (the single-node GMRES
// discipline) — a DUE sets the page's fault bit immediately but the data
// loss is applied only at iteration boundaries (ApplyPending), where the
// solvers repair through core.Relations. The §2.3 halo observation holds
// by construction: an inverse x repair reads only the page's connectivity
// set, which Exchange has already localised, so recovery stays rank-local
// plus one exchange.
package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// Rank is one shard: a contiguous page range of the global vectors with a
// private fault domain, ghost pages for its halo, and an engine view
// restricted to its owned pages.
type Rank struct {
	ID       int
	PLo, PHi int // owned global pages
	Lo, Hi   int // owned global elements
	// Space is the rank's fault domain. Vectors are full-length and
	// globally indexed; only owned and halo pages carry live data.
	Space *pagemem.Space
	// Halo lists the off-rank global pages this rank's rows read.
	Halo []int
	// Eng is the shared engine restricted to the rank's owned pages: one
	// task per phase per rank, like the paper's one-process-per-rank runs.
	Eng *engine.Engine
	// Rel applies the Table 1 relations with this rank's scratch and
	// statistics, so rank repairs can run concurrently.
	Rel *core.Relations
	// Stats counts this rank's resilience activity (per-rank blast
	// radius accounting).
	Stats core.Stats
	// Scratch is a full-length buffer for SpMV targets and residuals.
	Scratch []float64

	pageScratch []float64
	sub         *Substrate
}

// Owns reports whether global page p is in the rank's owned range.
func (r *Rank) Owns(p int) bool { return p >= r.PLo && p < r.PHi }

// OwnedFailed returns the rank's failed pages of v inside its owned range.
func (r *Rank) OwnedFailed(v *Vec) []int {
	var out []int
	for _, p := range v.R[r.ID].FailedPages() {
		if r.Owns(p) {
			out = append(out, p)
		}
	}
	return out
}

// Vec is one protected vector sharded across ranks: R[i] is rank i's
// full-length copy (owned range authoritative, halo imported).
type Vec struct {
	Name string
	R    []*pagemem.Vector
}

// Of returns the rank's copy of the vector.
func (v *Vec) Of(r *Rank) *pagemem.Vector { return v.R[r.ID] }

// Substrate carries the shared state of one distributed solve.
type Substrate struct {
	A      *sparse.CSR
	B      []float64
	Bnorm  float64
	Layout sparse.BlockLayout
	NP     int
	// Conn is the page connectivity of A (engine.PageConnectivity): the
	// exact read set of every row-page, and thus the halo definition.
	Conn   [][]int
	Blocks *sparse.BlockSolverCache
	Owner  []int // global page -> rank id
	Ranks  []*Rank
	RT     *taskrt.Runtime
	// Eng is the root (non-resilient) engine over all pages; rank views
	// are derived from it with Engine.Sub.
	Eng *engine.Engine
	// Pre is the rank-local block-Jacobi preconditioner (EnablePrecond),
	// nil for unpreconditioned solves. Blocks coincide with pages and the
	// shard layout assigns whole pages to ranks, so M⁻¹ application and
	// recovery never cross a rank boundary — no extra halo traffic.
	Pre *precond.BlockJacobi

	part *engine.Partial

	// reductions counts global reduction supersteps: every coordinator
	// partial-sum that plays an allreduce adds one.
	reductions int64

	// ownRT records whether the substrate created RT (and must close it)
	// or was handed an external, shared pool (Options.RT).
	ownRT bool
	// priority is Options.Priority: the tier of the rank tasks and of the
	// critical-path repairs.
	priority int

	// Coordinator-side gather scratch, reused across TrueResidual and
	// LossyInterpolateOwned calls instead of allocating 2N per check.
	gatherX, gatherRes []float64

	// Prepared per-rank superstep tasks plus one argument slot per
	// superstep kind. Supersteps are strictly sequential (each ends in a
	// barrier), so the one shared task set and the argument fields are
	// reused across calls — no handle slices, closures or label formatting
	// are allocated per superstep. A caller that binds its RankOp /
	// RankOpDot body once (dist.CG) iterates with 0 allocations.
	rankTasks []*taskrt.Handle // one per rank, body: stepFn(rank)
	stepFn    func(r *Rank)

	forEachFn func(r *Rank)                        // ForEachRank body
	opFn      func(r *Rank, p, lo, hi int)         // RankOp body
	opDotFn   func(r *Rank, p, lo, hi int) float64 // RankOpDot body
	xchVec    *Vec
	xchStrict bool
	dotX      *Vec
	dotY      *Vec
	spmvIn    *Vec
	spmvOut   *Vec
	preIn     *Vec // ApplyPrecondOwned operands
	preOut    *Vec

	// Bound step bodies (method values created once, not per call).
	forEachStepF, opStepF, opDotStepF, xchStepF func(r *Rank)
	dotStepF, spmvStepF, spmvDotStepF           func(r *Rank)
	precondStepF                                func(r *Rank)

	// Sites are the solve's fault sites, entered by the coordinator before
	// every rank superstep with the superstep's label ("halo" for an
	// exchange) and NP pages, so a loss lands between supersteps: after an
	// SpMV's halo import and before its rows, for one.
	Sites engine.Sites
}

// Options carries serving-layer resources a substrate can share instead
// of building its own. The zero value reproduces the historical behaviour
// (private pool, private block cache).
type Options struct {
	// RT is an externally owned task pool (typically taskrt.Shared); the
	// substrate submits to it but Close leaves it running. nil means a
	// private pool sized by the workers argument.
	RT *taskrt.Runtime
	// Blocks is a diagonal-block cache for the same operator, layout and
	// SPD setting; nil means a private one. Either is factored whole at
	// the first loss ApplyPending applies for a method that reads factors.
	// Mismatches are rejected loudly.
	Blocks *sparse.BlockSolverCache
	// Priority is the solve's compute tier (core.Config.TaskPriority): the
	// prepared rank tasks and FEIR's critical-path repairs run at it,
	// AFEIR's overlapped repairs below it (core.Config.OverlapPriority).
	// 0 keeps the rank tasks on the per-worker FIFO fast path.
	Priority int
}

// NewOpts builds the substrate for A x = b over the given number of ranks.
// workers <= 0 means one pool worker per rank; spd selects the diagonal
// block factorization family for the inverse relations; opts carries the
// resources a serving layer shares (zero value: private pool and cache).
func NewOpts(a *sparse.CSR, b []float64, ranks, pageDoubles, workers int, spd bool, opts Options) (*Substrate, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("shard: non-square matrix %dx%d", a.N, a.M)
	}
	if len(b) != a.N {
		return nil, fmt.Errorf("shard: rhs length %d for n=%d", len(b), a.N)
	}
	if ranks < 1 {
		ranks = 1
	}
	pageDoubles = defaults.PageDoublesOr(pageDoubles)
	layout := sparse.BlockLayout{N: a.N, BlockSize: pageDoubles}
	np := layout.NumBlocks()
	if ranks > np {
		ranks = np
	}
	s := &Substrate{
		A:      a,
		B:      append([]float64(nil), b...),
		Bnorm:  sparse.Norm2(b),
		Layout: layout,
		NP:     np,
		Owner:  make([]int, np),
		part:   engine.NewPartial(np),
	}
	if opts.Blocks != nil {
		if opts.Blocks.A != a || opts.Blocks.Layout != layout || opts.Blocks.SPD != spd {
			return nil, fmt.Errorf("shard: shared block cache mismatch (want matrix %p layout %+v spd=%v, have %p %+v spd=%v)",
				a, layout, spd, opts.Blocks.A, opts.Blocks.Layout, opts.Blocks.SPD)
		}
		s.Blocks = opts.Blocks
	} else {
		s.Blocks = sparse.NewBlockSolverCache(a, layout, spd)
	}
	s.gatherX = make([]float64, a.N)
	s.gatherRes = make([]float64, a.N)
	if s.Bnorm == 0 {
		s.Bnorm = 1
	}

	parts := engine.ChunkRanges(np, ranks)
	if opts.RT != nil {
		s.RT = opts.RT
	} else {
		if workers <= 0 {
			workers = len(parts)
		}
		s.RT = taskrt.New(workers)
		s.ownRT = true
	}
	s.Eng = engine.New(a, layout, s.RT, false, len(parts))
	s.priority = opts.Priority
	s.Eng.RecoveryPriority = core.Config{TaskPriority: opts.Priority}.OverlapPriority()
	s.Conn = s.Eng.Conn

	s.Ranks = make([]*Rank, len(parts))
	for id, pr := range parts {
		lo, _ := layout.Range(pr[0])
		hi := a.N
		if pr[1] < np {
			hi, _ = layout.Range(pr[1])
		}
		r := &Rank{
			ID: id, PLo: pr[0], PHi: pr[1], Lo: lo, Hi: hi,
			Space:       pagemem.NewSpace(a.N, pageDoubles),
			Eng:         s.Eng.Sub(pr[0], pr[1], 1),
			Scratch:     make([]float64, a.N),
			pageScratch: make([]float64, pageDoubles),
			sub:         s,
		}
		r.Rel = core.NewRelations(a, layout, s.Conn, s.Blocks, s.B, r.pageScratch, &r.Stats)
		for p := pr[0]; p < pr[1]; p++ {
			s.Owner[p] = id
		}
		s.Ranks[id] = r
	}
	// Halo sets: every off-rank page an owned row reads (Conn, the true
	// CSR columns — what recovery and the exchange mean by a ghost). The
	// exchange completes at a barrier before any row computes, so a padded
	// kernel shadow's extra loads never meet an import in flight.
	for _, r := range s.Ranks {
		isHalo := map[int]bool{}
		for p := r.PLo; p < r.PHi; p++ {
			for _, j := range s.Conn[p] {
				if !r.Owns(j) && !isHalo[j] {
					isHalo[j] = true
					r.Halo = append(r.Halo, j)
				}
			}
		}
	}
	// One prepared task per rank, replayed by every superstep with the
	// body routed through stepFn — zero allocations per superstep. Each
	// rank's task is homed to worker (rank mod workers): the same worker
	// re-touches the same owned pages superstep after superstep.
	s.rankTasks = make([]*taskrt.Handle, len(s.Ranks))
	for i, r := range s.Ranks {
		r := r
		s.rankTasks[i] = s.RT.NewTask(taskrt.TaskSpec{
			Label:    "superstep",
			Priority: opts.Priority,
			Home:     taskrt.HomeWorker(i),
			Run:      func(int) { s.stepFn(r) },
		})
	}
	s.forEachStepF = s.forEachStep
	s.opStepF = s.opStep
	s.opDotStepF = s.opDotStep
	s.xchStepF = s.xchStep
	s.dotStepF = s.dotStep
	s.spmvStepF = s.spmvStep
	s.spmvDotStepF = s.spmvDotStep
	s.precondStepF = s.precondStep
	return s, nil
}

// runStep enters the fault sites with every rank's pages, then replays
// the per-rank superstep tasks with the given body and waits — the
// allocation-free BSP superstep primitive every barrier operation below
// routes through.
func (s *Substrate) runStep(label string, fn func(r *Rank)) {
	s.Sites.Enter(label, s.NP)
	s.stepFn = fn
	s.RT.ResubmitAll(s.rankTasks, nil)
	s.RT.WaitAll(s.rankTasks)
}

// Close releases the task pool when the substrate owns it; an externally
// owned pool (Options.RT) is left running.
func (s *Substrate) Close() {
	if s.ownRT {
		s.RT.Close()
	}
}

// Reductions returns the number of global reduction supersteps performed
// so far (coordinator partial-sums; see the field comment). Coordinator-
// side only, so a plain read.
func (s *Substrate) Reductions() int64 { return s.reductions }

// AddVector registers one protected vector on every rank's fault domain.
func (s *Substrate) AddVector(name string) *Vec {
	v := &Vec{Name: name, R: make([]*pagemem.Vector, len(s.Ranks))}
	for i, r := range s.Ranks {
		v.R[i] = r.Space.AddVector(name)
	}
	return v
}

// Spaces returns the per-rank fault domains (the injection surface).
func (s *Substrate) Spaces() []*pagemem.Space {
	out := make([]*pagemem.Space, len(s.Ranks))
	for i, r := range s.Ranks {
		out[i] = r.Space
	}
	return out
}

// ForEachRank runs fn(r) as one task per rank on the shared pool and
// waits — the BSP superstep primitive for rank-granular work. The label
// names the superstep's fault site; the caller's closure is the only
// per-call allocation.
func (s *Substrate) ForEachRank(label string, fn func(r *Rank)) {
	s.forEachFn = fn
	s.runStep(label, s.forEachStepF)
}

func (s *Substrate) forEachStep(r *Rank) { s.forEachFn(r) }

// RankOp runs fn(r, p, lo, hi) for every owned page of every rank as one
// task per rank, and waits.
func (s *Substrate) RankOp(label string, fn func(r *Rank, p, lo, hi int)) {
	s.opFn = fn
	s.runStep(label, s.opStepF)
}

func (s *Substrate) opStep(r *Rank) {
	for p := r.PLo; p < r.PHi; p++ {
		lo, hi := s.Layout.Range(p)
		s.opFn(r, p, lo, hi)
	}
}

// Exchange imports every rank's halo pages of v from their owners — the
// §3.4 communication step. It must run at a barrier: owners' shards are
// quiescent, so concurrent rank tasks read disjoint owned ranges while
// writing only their own ghost pages. Importing overwrites the whole
// ghost page, which heals any DUE that landed in it (the halo pages of a
// vector are as replaceable as a recomputed q).
//
// strict additionally propagates the owner's fault state: a halo page
// whose owner copy is failed is marked failed locally instead of copied,
// so the local Table 1 relation guards see exactly the global failure
// map during recovery fixpoints.
func (s *Substrate) Exchange(v *Vec, strict bool) {
	s.xchVec, s.xchStrict = v, strict
	s.runStep("halo", s.xchStepF)
}

//due:hotpath
func (s *Substrate) xchStep(r *Rank) {
	v, strict := s.xchVec, s.xchStrict
	local := v.R[r.ID]
	for _, p := range r.Halo {
		own := v.R[s.Owner[p]]
		if strict && own.Failed(p) {
			local.MarkFailed(p)
			continue
		}
		lo, hi := s.Layout.Range(p)
		copy(local.Data[lo:hi], own.Data[lo:hi])
		local.MarkRecovered(p)
	}
}

// Dot computes the global inner product <x, y> over owned pages: each
// rank stores its per-page partials into a shared engine.Partial (the
// slots are disjoint across ranks), and the coordinator's sum plays the
// allreduce.
func (s *Substrate) Dot(label string, x, y *Vec) float64 {
	s.part.ResetMissing()
	s.dotX, s.dotY = x, y
	s.runStep(label, s.dotStepF)
	s.reductions++
	sum, _ := s.part.SumAvailable()
	return sum
}

//due:hotpath
func (s *Substrate) dotStep(r *Rank) {
	x, y := s.dotX.R[r.ID].Data, s.dotY.R[r.ID].Data
	for p := r.PLo; p < r.PHi; p++ {
		lo, hi := s.Layout.Range(p)
		s.part.Store(p, sparse.DotRange(x, y, lo, hi))
	}
}

// SpMV computes out = A * in on owned rows after refreshing in's halo.
func (s *Substrate) SpMV(label string, in, out *Vec) {
	s.Exchange(in, false)
	s.spmvIn, s.spmvOut = in, out
	s.runStep(label, s.spmvStepF)
}

//due:hotpath
func (s *Substrate) spmvStep(r *Rank) {
	in, out := s.spmvIn.R[r.ID].Data, s.spmvOut.R[r.ID].Data
	for p := r.PLo; p < r.PHi; p++ {
		lo, hi := s.Layout.Range(p)
		s.A.MulVecRange(in, out, lo, hi)
	}
}

// SpMVDot computes out = A * in on owned rows (halo refresh included)
// fused with the global <in, out> reduction: every rank's SpMV tasks
// store their dot partials in the same pass that writes out, and the
// coordinator's sum plays the allreduce.
func (s *Substrate) SpMVDot(label string, in, out *Vec) float64 {
	s.Exchange(in, false)
	s.part.ResetMissing()
	s.spmvIn, s.spmvOut = in, out
	s.runStep(label, s.spmvDotStepF)
	s.reductions++
	sum, _ := s.part.SumAvailable()
	return sum
}

//due:hotpath
func (s *Substrate) spmvDotStep(r *Rank) {
	in, out := s.spmvIn.R[r.ID].Data, s.spmvOut.R[r.ID].Data
	for p := r.PLo; p < r.PHi; p++ {
		lo, hi := s.Layout.Range(p)
		xy, _ := s.A.MulVecDotRange(in, out, lo, hi)
		s.part.Store(p, xy)
	}
}

// RankOpDot runs fn(r, p, lo, hi) for every owned page of every rank and
// reduces the per-page values fn returns into one global sum — the fused
// analogue of RankOp followed by Dot, for update kernels that can carry
// their reduction in the same pass (sparse.AxpyDotRange and friends).
func (s *Substrate) RankOpDot(label string, fn func(r *Rank, p, lo, hi int) float64) float64 {
	s.part.ResetMissing()
	s.opDotFn = fn
	s.runStep(label, s.opDotStepF)
	s.reductions++
	sum, _ := s.part.SumAvailable()
	return sum
}

//due:hotpath
func (s *Substrate) opDotStep(r *Rank) {
	for p := r.PLo; p < r.PHi; p++ {
		lo, hi := s.Layout.Range(p)
		s.part.Store(p, s.opDotFn(r, p, lo, hi))
	}
}

// EnablePrecond builds the block-Jacobi preconditioner over the
// substrate's page layout, sharing the diagonal-block factors of the
// recovery cache (factoring any not built yet) — the §5.1 observation that
// the preconditioner setup and the recovery solvers are the same
// factorizations. It fails if any diagonal block is not factorizable,
// since a block-Jacobi preconditioner needs every block.
func (s *Substrate) EnablePrecond() error {
	pre, err := precond.FromCache(s.Blocks)
	if err != nil {
		return fmt.Errorf("shard: block-Jacobi setup: %w", err)
	}
	s.Pre = pre
	return nil
}

// ApplyPrecondOwned computes out = M⁻¹ in on every rank's owned pages.
// Block diagonality means no halo is needed: each page application reads
// exactly that page of in, so the operation is embarrassingly
// rank-parallel with zero communication.
func (s *Substrate) ApplyPrecondOwned(label string, in, out *Vec) {
	s.preIn, s.preOut = in, out
	s.runStep(label, s.precondStepF)
}

func (s *Substrate) precondStep(r *Rank) {
	in, out := s.preIn.Of(r).Data, s.preOut.Of(r).Data
	for p := r.PLo; p < r.PHi; p++ {
		_ = s.Pre.ApplyBlock(p, in, out)
	}
}

// RecoverPrecondOwned repairs every failed owned page of z by partial
// preconditioner application from src (z = M⁻¹ src, §3.2), per the
// method's recovery discipline. src's owned pages must have been repaired
// first; a page whose src is still failed is left for the caller's
// fallback. Rank-local by block diagonality.
func (s *Substrate) RecoverPrecondOwned(method core.Method, label string, z, src *Vec) {
	s.Recover(method, label, func(r *Rank) {
		for _, p := range r.OwnedFailed(z) {
			if src.Of(r).Failed(p) {
				continue
			}
			if s.Pre.ApplyBlock(p, src.Of(r).Data, z.Of(r).Data) != nil {
				continue
			}
			z.Of(r).MarkRecovered(p)
			r.Stats.PrecondPartialApplies++
		}
	})
}

// Gather assembles the global vector from the owned shards.
func (s *Substrate) Gather(v *Vec, out []float64) {
	for _, r := range s.Ranks {
		copy(out[r.Lo:r.Hi], v.R[r.ID].Data[r.Lo:r.Hi])
	}
}

// Scatter copies src into every rank's owned range of v.
func (s *Substrate) Scatter(src []float64, v *Vec) {
	for _, r := range s.Ranks {
		copy(v.R[r.ID].Data[r.Lo:r.Hi], src[r.Lo:r.Hi])
	}
}

// ResidualFromX recomputes g = b - A x on owned rows (with a fresh x
// halo). Callers must have resolved any x faults first.
func (s *Substrate) ResidualFromX(x, g *Vec) {
	s.Exchange(x, false)
	s.RankOp("g=b-Ax", func(r *Rank, p, lo, hi int) {
		xd := x.R[r.ID].Data
		gd := g.R[r.ID].Data
		s.A.MulVecRange(xd, r.Scratch, lo, hi)
		for i := lo; i < hi; i++ {
			gd[i] = s.B[i] - r.Scratch[i]
		}
	})
}

// TrueResidual computes ||b - A x|| / ||b|| from the gathered iterate,
// in the substrate-owned scratch (no per-check allocation).
func (s *Substrate) TrueResidual(x *Vec) float64 {
	s.reductions++
	s.Gather(x, s.gatherX)
	s.A.MulVec(s.gatherX, s.gatherRes)
	sparse.Sub(s.B, s.gatherRes, s.gatherRes)
	return sparse.Norm2(s.gatherRes) / s.Bnorm
}

// ApplyPending applies enqueued data losses on every rank (a task-phase
// boundary: all workers quiescent) and returns the number applied,
// accounting them to the per-rank statistics. The first loss under a
// method that reads factors fills the whole block cache, so no later
// repair factorizes (DESIGN §8). Leniently: a non-factorizable block only
// disables that block's inverse repair.
func (s *Substrate) ApplyPending(method core.Method) int {
	total := 0
	for _, r := range s.Ranks {
		n := len(r.Space.ScramblePending())
		r.Stats.FaultsSeen += n
		total += n
	}
	if total > 0 && method.ReadsFactors() {
		s.Blocks.PrefactorizeLenient()
	}
	return total
}

// Pending reports whether any rank holds a loss ApplyPending has yet to
// apply.
func (s *Substrate) Pending() bool {
	for _, r := range s.Ranks {
		if r.Space.PendingCount() > 0 {
			return true
		}
	}
	return false
}

// AnyFault reports whether any rank has a failed page (owned or ghost).
func (s *Substrate) AnyFault() bool {
	for _, r := range s.Ranks {
		if r.Space.AnyFault() {
			return true
		}
	}
	return false
}

// OwnedFault reports whether any rank has a failed page inside its owned
// range — the damage that needs a relation (ghost damage heals by
// re-import).
func (s *Substrate) OwnedFault() bool {
	for _, r := range s.Ranks {
		for p := r.PLo; p < r.PHi; p++ {
			if r.Space.PageMask(p) != 0 {
				return true
			}
		}
	}
	return false
}

// HealGhosts blanks every failed page outside its rank's owned range:
// ghost data is re-imported by Exchange before any read, so a DUE there
// (or a fault bit propagated by a strict exchange) costs nothing beyond
// the import. Must run at a barrier.
func (s *Substrate) HealGhosts() {
	for _, r := range s.Ranks {
		for _, v := range r.Space.Vectors() {
			for _, p := range v.FailedPages() {
				if !r.Owns(p) {
					v.Remap(p)
					v.MarkRecovered(p)
				}
			}
		}
	}
}

// Recover schedules fn(r) for every rank with a visible fault per the
// method's discipline: MethodAFEIR submits the repairs as overlapped
// tasks below the compute tier (Fig 2b) so affected ranks recover
// concurrently with one another and with queued work; every other method
// runs them in the critical path at the compute tier (Fig 2a), one rank
// at a time. Repairs must be rank-local
// (reads confined to the rank's own vectors) — cross-rank data moves only
// through a prior strict Exchange.
//
//due:recovery
func (s *Substrate) Recover(method core.Method, label string, fn func(r *Rank)) {
	if method == core.MethodAFEIR {
		hs := make([]*taskrt.Handle, 0, len(s.Ranks))
		for _, r := range s.Ranks {
			if !r.Space.AnyFault() {
				continue
			}
			r := r
			hs = append(hs, s.Eng.OverlappedRecovery(fmt.Sprintf("rank%d:%s", r.ID, label), nil, func() { fn(r) }))
		}
		s.RT.WaitAll(hs)
		return
	}
	for _, r := range s.Ranks {
		if !r.Space.AnyFault() {
			continue
		}
		r := r
		s.Eng.CriticalRecovery(fmt.Sprintf("rank%d:%s", r.ID, label), s.priority, func() { fn(r) })
	}
}

// LossyInterpolateOwned runs the §4.3 block-Jacobi interpolation for
// every failed owned page of x across ranks, on the gathered iterate,
// scattering the result back. Returns the number of interpolated pages.
func (s *Substrate) LossyInterpolateOwned(x *Vec) int {
	var failed []int
	for _, r := range s.Ranks {
		failed = append(failed, r.OwnedFailed(x)...)
	}
	if len(failed) == 0 {
		return 0
	}
	xg := s.gatherX
	s.Gather(x, xg)
	if !core.LossyInterpolate(s.A, s.Layout, s.Blocks, s.B, xg, failed) {
		return 0
	}
	s.Scatter(xg, x)
	for _, r := range s.Ranks {
		for _, p := range r.OwnedFailed(x) {
			x.R[r.ID].MarkRecovered(p)
		}
	}
	return len(failed)
}

// Stats aggregates the per-rank resilience counters.
func (s *Substrate) Stats() core.Stats {
	var out core.Stats
	for _, r := range s.Ranks {
		out.Add(r.Stats)
	}
	return out
}

// RankStats returns a snapshot of every rank's counters.
func (s *Substrate) RankStats() []core.Stats {
	out := make([]core.Stats, len(s.Ranks))
	for i, r := range s.Ranks {
		out[i] = r.Stats
	}
	return out
}
