// Communication-overlapping supersteps: the distributed hot path without
// the global barrier between halo exchange and SpMV.
//
// The barrier path (Exchange then spmvDots) synchronises every rank twice
// per SpMV: all ghost pages must land before any row computes. But the
// halo dependency structure says most rows never read a ghost page — a
// row-page whose SpMV kernel touches no ghost page (Rank.Interior) is
// computable the moment its input's owned pages exist. OverlapStep
// turns that observation into the task graph of one superstep:
//
//	upd[r]        (optional) produce the input's owned pages on rank r
//	halo[r,g]     import ghost page g from its owner — after upd[owner(g)]
//	interior[r]   SpMV rows with owned-only reads     — after upd[r]
//	boundary[r,p] SpMV rows of owned page p reading ghosts — after upd[r]
//	              and the halo imports of exactly the ghost pages its
//	              kernel touches (per-page gating, not a global barrier)
//
// so interior rows of every rank run while halo copies are still in
// flight, and a boundary page starts as soon as its own ghosts landed.
// The fused <in,out>/<out,out> reductions ride the SpMV pass exactly as
// in the barrier path (same kernels, same per-page partial slots, same
// coordinator sum order), so a no-fault overlapped solve is bitwise
// identical to a barrier solve.
//
// Fault semantics are unchanged: phases run unguarded and data losses
// apply only at iteration boundaries (ApplyPending), never mid-superstep;
// the per-page halo import performs the same full-page overwrite +
// MarkRecovered ghost healing as the non-strict Exchange; strict
// (fault-propagating) exchanges happen only inside recovery fixpoints,
// which stay on the barrier path. A DUE raised while the superstep is in
// flight sets the fault bit immediately and surfaces at the next
// boundary, exactly as on the barrier path — the overlap storm tests pin
// recovery counts to the barrier path's.
//
// All handles, dependency lists and bodies are built once (engine.Prepared
// style); Start/Finish replay them with zero allocations.
package shard

import (
	"repro/internal/engine"
	"repro/internal/taskrt"
)

// OverlapStep is a prepared communication-overlapping SpMV superstep
// out = A·in over owned rows, optionally preceded by a fused per-rank
// producer of in (the CG d-update) and fused with the global <in,out>
// and/or <out,out> reductions.
type OverlapStep struct {
	sub *Substrate
	in  *Vec
	out *Vec
	pre func(r *Rank, p, lo, hi int)

	xy, yy *engine.Partial // the substrate's shared reduction buffers

	upd      []*taskrt.Handle // per rank; nil when pre == nil
	halo     []*taskrt.Handle // one per (rank, ghost page)
	haloDep  [][]*taskrt.Handle
	interior []*taskrt.Handle // per rank
	intDep   [][]*taskrt.Handle
	boundary []*taskrt.Handle // one per (rank, boundary page)
	bndDep   [][]*taskrt.Handle
	wait     []*taskrt.Handle // every task above, prebuilt wait list

	label string
}

// NewOverlapStep prepares the superstep for the fixed (in, out) vector
// pair. pre, when non-nil, runs first on every owned page of each rank
// (producing in); wantXY/wantYY select the fused reductions, which use
// the substrate's shared partial buffers (one overlapped or barrier
// reduction superstep at a time, like every other substrate op).
func (s *Substrate) NewOverlapStep(label string, in, out *Vec, pre func(r *Rank, p, lo, hi int), wantXY, wantYY bool) *OverlapStep {
	st := &OverlapStep{sub: s, in: in, out: out, pre: pre, label: label}
	if wantXY {
		st.xy = s.part
	}
	if wantYY {
		st.yy = s.part2
	}
	rt := s.RT

	if pre != nil {
		st.upd = make([]*taskrt.Handle, len(s.Ranks))
		for i, r := range s.Ranks {
			r := r
			//due:hotpath
			st.upd[i] = rt.NewTask(taskrt.TaskSpec{Label: label + ":upd", Home: taskrt.HomeWorker(i), Run: func(int) {
				for p := r.PLo; p < r.PHi; p++ {
					lo, hi := s.Layout.Range(p)
					st.pre(r, p, lo, hi)
				}
			}})
		}
	}

	// Per-ghost-page halo imports, each gated only on the owner's
	// producer; haloOf remembers the handle per (rank, page) so boundary
	// tasks can depend on exactly the ghosts they read.
	haloOf := make([]map[int]*taskrt.Handle, len(s.Ranks))
	for i, r := range s.Ranks {
		r := r
		haloOf[i] = make(map[int]*taskrt.Handle, len(r.Halo))
		for _, p := range r.Halo {
			p := p
			// The import writes rank i's ghost page: home it with the
			// reader's other tasks, not the owner's.
			//due:hotpath
			h := rt.NewTask(taskrt.TaskSpec{Label: label + ":halo", Home: taskrt.HomeWorker(i), Run: func(int) {
				local := st.in.R[r.ID]
				lo, hi := s.Layout.Range(p)
				copy(local.Data[lo:hi], st.in.R[s.Owner[p]].Data[lo:hi])
				local.MarkRecovered(p)
			}})
			var dep []*taskrt.Handle
			if pre != nil {
				dep = []*taskrt.Handle{st.upd[s.Owner[p]]}
			}
			haloOf[i][p] = h
			st.halo = append(st.halo, h)
			st.haloDep = append(st.haloDep, dep)
		}
	}

	for i, r := range s.Ranks {
		r := r
		//due:hotpath
		intTask := rt.NewTask(taskrt.TaskSpec{Label: label + ":int", Home: taskrt.HomeWorker(i), Run: func(int) {
			for _, p := range r.Interior {
				lo, hi := s.Layout.Range(p)
				st.page(r, p, lo, hi)
			}
		}})
		st.interior = append(st.interior, intTask)
		var dep []*taskrt.Handle
		if pre != nil {
			dep = []*taskrt.Handle{st.upd[i]}
		}
		st.intDep = append(st.intDep, dep)

		for _, p := range r.Boundary {
			p := p
			//due:hotpath
			bndTask := rt.NewTask(taskrt.TaskSpec{Label: label + ":bnd", Home: taskrt.HomeWorker(i), Run: func(int) {
				lo, hi := s.Layout.Range(p)
				st.page(r, p, lo, hi)
			}})
			st.boundary = append(st.boundary, bndTask)
			var dep []*taskrt.Handle
			if pre != nil {
				dep = append(dep, st.upd[i])
			}
			for _, j := range r.ghosts[p-r.PLo] {
				dep = append(dep, haloOf[i][j])
			}
			st.bndDep = append(st.bndDep, dep)
		}
	}

	st.wait = append(st.wait, st.upd...)
	st.wait = append(st.wait, st.halo...)
	st.wait = append(st.wait, st.interior...)
	st.wait = append(st.wait, st.boundary...)
	return st
}

// page computes one owned row-page of out with the same per-page partial
// slots (and bitwise the same values) as the barrier spmvDots/SpMV path.
// When only one reduction is wanted the single-dot kernel saves the other
// reduction's work, exactly as engine.SpMVDotPage does on the single-node
// hot path: <in,out> is <out,w> with w = in, and <out,out> is <out,w>
// with w = out.
//
//due:hotpath
func (st *OverlapStep) page(r *Rank, p, lo, hi int) {
	in, out := st.in.R[r.ID].Data, st.out.R[r.ID].Data
	switch {
	case st.xy == nil && st.yy == nil:
		st.sub.A.MulVecRange(in, out, lo, hi)
	case st.xy != nil && st.yy == nil:
		st.xy.Store(p, st.sub.A.MulVecDotVecRange(in, out, in, lo, hi))
	case st.xy == nil && st.yy != nil:
		st.yy.Store(p, st.sub.A.MulVecDotVecRange(in, out, out, lo, hi))
	default:
		sxy, syy := st.sub.A.MulVecDotRange(in, out, lo, hi)
		st.xy.Store(p, sxy)
		st.yy.Store(p, syy)
	}
}

// Start replays the whole graph. Producers are resubmitted before their
// dependents so reused handles register real edges into this round's
// runs. The previous Start must have been Finished.
func (st *OverlapStep) Start() {
	if st.xy != nil {
		st.xy.ResetMissing()
	}
	if st.yy != nil {
		st.yy.ResetMissing()
	}
	rt := st.sub.RT
	if st.upd != nil {
		rt.ResubmitAll(st.upd, nil)
	}
	for i, h := range st.halo {
		rt.Resubmit(h, st.haloDep[i])
	}
	for i, h := range st.interior {
		rt.Resubmit(h, st.intDep[i])
	}
	for i, h := range st.boundary {
		rt.Resubmit(h, st.bndDep[i])
	}
	if hook := st.sub.TestHook; hook != nil {
		hook("overlap:" + st.label)
	}
}

// Finish waits for the graph and returns the fused reductions (zero when
// not requested). The coordinator helps execute in-flight tasks, as in
// every substrate barrier.
func (st *OverlapStep) Finish() (xy, yy float64) {
	st.sub.RT.WaitAll(st.wait)
	if st.xy != nil || st.yy != nil {
		st.sub.reductions++
	}
	if st.xy != nil {
		xy, _ = st.xy.SumAvailable()
	}
	if st.yy != nil {
		yy, _ = st.yy.SumAvailable()
	}
	return xy, yy
}

// Run is Start followed by Finish.
func (st *OverlapStep) Run() (xy, yy float64) {
	st.Start()
	return st.Finish()
}

// PreparedRankOp is a replayable RankOpDot superstep: one persistent task
// per rank whose body reads per-iteration state through the solver's
// closure, resubmitted with zero allocations — engine.Prepared brought to
// the shard layer.
type PreparedRankOp struct {
	sub   *Substrate
	tasks []*taskrt.Handle
}

// PrepareRankOpDot prepares a replayable RankOpDot (one fused reduction,
// stored in the substrate's shared partial buffer).
func (s *Substrate) PrepareRankOpDot(label string, fn func(r *Rank, p, lo, hi int) float64) *PreparedRankOp {
	op := &PreparedRankOp{sub: s, tasks: make([]*taskrt.Handle, len(s.Ranks))}
	for i, r := range s.Ranks {
		r := r
		//due:hotpath
		op.tasks[i] = s.RT.NewTask(taskrt.TaskSpec{Label: label, Home: taskrt.HomeWorker(i), Run: func(int) {
			for p := r.PLo; p < r.PHi; p++ {
				lo, hi := s.Layout.Range(p)
				s.part.Store(p, fn(r, p, lo, hi))
			}
		}})
	}
	return op
}

// RunDot resets the shared partial buffer, replays the tasks, waits and
// returns the fused reduction (one reduction superstep).
func (op *PreparedRankOp) RunDot() float64 {
	s := op.sub
	s.part.ResetMissing()
	s.RT.ResubmitAll(op.tasks, nil)
	if hook := s.TestHook; hook != nil {
		hook("rankop")
	}
	s.RT.WaitAll(op.tasks)
	s.reductions++
	a, _ := s.part.SumAvailable()
	return a
}
