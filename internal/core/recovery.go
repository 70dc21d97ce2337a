package core

import (
	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// This file is the one recovery interpreter behind Figure 1(b). Each
// solver states its wiring — which Table 1 relation (relations.go)
// rebuilds which vector, at which phase end, from which inputs at which
// version, in which order — as repair tables built once at construction;
// the solverBase runs them to a fixpoint (repair), schedules that run as
// a phase's repair task (runRecovery) and ends every phase the same way
// (boundary, reconcile).
//
// allowLate distinguishes FEIR from AFEIR: AFEIR's repair runs
// concurrently with the phase's reduction tasks, so it must not rewrite
// pages those reductions may be reading — pages whose stamp is current
// but whose fault bit was set mid-phase ("late" poisons). A row whose
// vector a reduction reads says so, and its late pages wait for a repair
// with late rights: FEIR's, which starts after every computation of the
// phase, or the boundary's. This is the paper's coverage difference (§5.4).

// relKind is the Table 1 relation a row runs.
type relKind uint8

const (
	relForward relKind = iota // re-run the operation that produced the page
	relInverse                // solve the relation for its input through the factorized diagonal block
	relCoupled                // §2.4's combined block system of connected lost pages
	relPrecond                // partial preconditioner application z_p = M_pp⁻¹ src_p (§3.2)
	relUnapply                // the forward product d_p = M_pp d̂_p
)

// repairRow is one row of a repair table: a relation that rebuilds
// vector v at version ver+off, the version the running phase produces
// offset by off.
type repairRow struct {
	v    *engine.Vec
	off  int64
	kind relKind
	// late: a concurrent reduction reads v, so AFEIR's late rule applies.
	late bool
	// try rebuilds page p when the row applies and its inputs are
	// current, and reports whether it did.
	try func(p int) bool
	// A coupled row has no try: member reports whether page p joins its
	// group, and solve rebuilds the group (ascending pages) at once.
	member func(p int) bool
	solve  func(group []int) bool
}

// backFill recomputes a skipped partial contribution: part[p] = <x, y>
// over page p once both are current at ver (y nil: the reliably stored r).
type backFill struct {
	part *engine.Partial
	x, y *engine.Vec
	r    []float64
}

// repairTable is a solver's wiring at one boundary.
type repairTable struct {
	rows  []repairRow
	fills []backFill
	// transient vectors regenerate by overwrite before anything reads
	// them again: a boundary blanks their lost pages instead of failing.
	transient []*pagemem.Vector
	// rowMajor runs each row over every page before the next row
	// (GMRES's Arnoldi chain rebuilds v_l from the whole v_{l-1}); by
	// default a pass runs every row on a page before the next page.
	rowMajor bool
}

// repair runs t to its fixpoint: at most four passes over the rows in
// their declared order, the coupled rows tried in order after a pass
// that made no progress (the first that succeeds opens another pass),
// then the back-fills. With no fault bit anywhere nothing can be stale
// (a skip leaves a fault bit behind), so only the back-fills run.
func (s *solverBase) repair(t *repairTable, allowLate bool) {
	if s.space.AnyFault() {
		for pass := 0; pass < 4; pass++ {
			if !s.repairPass(t, allowLate) && !s.repairCoupled(t, allowLate) {
				break
			}
		}
	}
	for i := range t.fills {
		f := &t.fills[i]
		for p := 0; p < s.np; p++ {
			if !f.part.Missing(p) || !f.x.Current(p, s.ver) {
				continue
			}
			y := f.r
			if f.y != nil {
				if !f.y.Current(p, s.ver) {
					continue
				}
				y = f.y.V.Data
			}
			lo, hi := s.layout.Range(p)
			f.part.Store(p, sparse.DotRange(f.x.V.Data, y, lo, hi))
		}
	}
}

// repairPass is one pass over t's page rows; it reports progress.
func (s *solverBase) repairPass(t *repairTable, allowLate bool) (progress bool) {
	if t.rowMajor {
		for i := range t.rows {
			for p := 0; p < s.np; p++ {
				progress = s.tryRow(&t.rows[i], p, allowLate) || progress
			}
		}
		return progress
	}
	for p := 0; p < s.np; p++ {
		for i := range t.rows {
			progress = s.tryRow(&t.rows[i], p, allowLate) || progress
		}
	}
	return progress
}

// repairable applies the late rule to page p of r's vector.
func (s *solverBase) repairable(r *repairRow, p int, allowLate bool) bool {
	return allowLate || !r.late || !r.v.LateFault(p, s.ver+r.off)
}

func (s *solverBase) tryRow(r *repairRow, p int, allowLate bool) bool {
	return r.try != nil && s.repairable(r, p, allowLate) && r.try(p)
}

// repairCoupled tries t's coupled rows in order and reports whether one
// rebuilt its group.
func (s *solverBase) repairCoupled(t *repairTable, allowLate bool) bool {
	for i := range t.rows {
		r := &t.rows[i]
		if r.solve == nil {
			continue
		}
		s.group = s.group[:0]
		for p := 0; p < s.np; p++ {
			if s.repairable(r, p, allowLate) && r.member(p) {
				s.group = append(s.group, p)
			}
		}
		if r.solve(s.group) {
			return true
		}
	}
	return false
}

// The rows of the relations every table draws on (relations.go), each
// rebuilding a page of its vector not current at ver+off from inputs at
// the given offsets.

// residualRow: a lost page of g from g = b - A x (Table 1, row 3 lhs).
func (s *solverBase) residualRow(g, x *engine.Vec, off int64, late bool) repairRow {
	return repairRow{v: g, off: off, kind: relForward, late: late, try: func(p int) bool {
		return g.V.Failed(p) && s.rel.ForwardResidual(*g, s.ver+off, *x, s.ver+off, p)
	}}
}

// iterateRow: a lost page of x from x = A⁻¹(b - g) (row 3 rhs).
func (s *solverBase) iterateRow(x, g *engine.Vec, off int64) repairRow {
	return repairRow{v: x, off: off, kind: relInverse, try: func(p int) bool {
		return x.V.Failed(p) && s.rel.InverseIterate(*x, s.ver+off, *g, s.ver+off, p)
	}}
}

// spmvRow: q = A d (row 1 lhs).
func (s *solverBase) spmvRow(q *engine.Vec, qOff int64, d *engine.Vec, dOff int64, late bool) repairRow {
	return repairRow{v: q, off: qOff, kind: relForward, late: late, try: func(p int) bool {
		return !q.Current(p, s.ver+qOff) && s.rel.ForwardSpMV(*q, s.ver+qOff, *d, s.ver+dOff, p)
	}}
}

// directionRow: d = A⁻¹ q (row 1 rhs).
func (s *solverBase) directionRow(d *engine.Vec, dOff int64, q *engine.Vec, qOff int64, late bool) repairRow {
	return repairRow{v: d, off: dOff, kind: relInverse, late: late, try: func(p int) bool {
		return !d.Current(p, s.ver+dOff) && s.rel.InverseDirection(*d, s.ver+dOff, *q, s.ver+qOff, p)
	}}
}

// precondRow: z_p = M_pp⁻¹ src_p (§3.2).
func (s *solverBase) precondRow(z *engine.Vec, zOff int64, src *engine.Vec, srcOff int64, late bool) repairRow {
	return repairRow{v: z, off: zOff, kind: relPrecond, late: late, try: func(p int) bool {
		return !z.Current(p, s.ver+zOff) && s.rel.PrecondApply(s.pre, *z, s.ver+zOff, *src, s.ver+srcOff, p)
	}}
}

// unapplyRow: d_p = M_pp d̂_p.
func (s *solverBase) unapplyRow(d *engine.Vec, dOff int64, dhat *engine.Vec, hatOff int64) repairRow {
	return repairRow{v: d, off: dOff, kind: relUnapply, try: func(p int) bool {
		return !d.Current(p, s.ver+dOff) && s.rel.PrecondUnapply(s.pre, *d, s.ver+dOff, *dhat, s.ver+hatOff, p)
	}}
}

// forwarded finishes a forward repair written in place: page p of v is
// marked recovered at ver and counted. On a page that was merely stale
// (no fault bit), marking it recovered just forgets its checksum, which
// described the previous version.
func (s *solverBase) forwarded(v engine.Vec, p int, ver int64) bool {
	s.rel.MarkRecovered(v, p, ver)
	s.stats.RecoveredForward++
	return true
}

// reconcile is the next recovery opportunity, with every worker
// quiescent: t runs with late rights, its transient vectors are blanked,
// and a page of a row's vector still not current at the row's version is
// a loss no relation rebuilt (§2.4), which the Lossy step takes. It
// reports whether the Lossy step consumed the iteration.
func (s *solverBase) reconcile(t *repairTable) bool {
	s.repair(t, true)
	blankFailed(t.transient)
	for i := range t.rows {
		r := &t.rows[i]
		for p := 0; p < s.np; p++ {
			if !r.v.Current(p, s.ver+r.off) {
				s.lossyRestart(s.lostIterate(t))
				return true
			}
		}
	}
	return false
}

// lostIterate lists the iterate pages the Lossy step interpolates: those
// not current at the version t's first iterate row rebuilds x at, or the
// failed ones when there is no such row (t nil included).
func (s *solverBase) lostIterate(t *repairTable) []int {
	x, ver := engine.Vec{V: s.x}, int64(0)
	if t != nil {
		for i := range t.rows {
			if r := &t.rows[i]; r.v.V == s.x {
				x, ver = *r.v, s.ver+r.off
				break
			}
		}
	}
	var pages []int
	for p := 0; p < s.np; p++ {
		if !x.Current(p, ver) {
			pages = append(pages, p)
		}
	}
	return pages
}

// boundary ends a phase with every worker quiescent, the same way for
// every solver: the fault sites close, pending losses take effect, and
// the method resolves every lost page. Ideal and Trivial (and a
// Checkpoint run without a snapshot protocol) blank them; Checkpoint
// rolls back; Lossy blanks t's transient pages and takes the Lossy step
// on anything else; FEIR and AFEIR reconcile t (nil: the phase's repair
// task did the work and the solver reconciles later). It reports whether
// a rollback or the Lossy step consumed the iteration.
func (s *solverBase) boundary(t *repairTable) (consumed bool) {
	s.sites.Close()
	s.applyPending()
	if !s.space.AnyFault() {
		return false
	}
	switch m := s.cfg.Method; {
	case m == MethodCheckpoint && s.rollback != nil:
		s.rollback()
		return true
	case !m.ReadsFactors():
		blankAllFailed(s.space)
		return false
	case m == MethodLossy:
		if t != nil {
			blankFailed(t.transient)
		}
		if !s.space.AnyFault() {
			return false
		}
		s.lossyRestart(s.lostIterate(nil))
		return true
	case t == nil:
		return false
	}
	return s.reconcile(t)
}

// recoveryTask is a phase's repair prepared as two single tasks: the
// overlapped one (AFEIR, Fig 2b) and the critical-path one (FEIR,
// Fig 2a).
type recoveryTask struct {
	overlapped, critical *engine.Prepared
}

// prepareRecovery prepares the repair of t. The overlapped task runs
// below every compute tier without late rights; the critical one runs
// at the solver's compute tier prio with them.
func (s *solverBase) prepareRecovery(label string, prio int, t *repairTable) recoveryTask {
	//due:recovery
	overlapped := s.eng.PrepareSingle(label, s.cfg.OverlapPriority(), func() { s.repair(t, false) })
	//due:allow(priority-clamp) FEIR recovery is critical-path by design (Fig 2a): the coordinator blocks on it, so it runs at the solver's compute tier, not below it
	//due:recovery
	critical := s.eng.PrepareSingle(label, prio, func() { s.repair(t, true) })
	return recoveryTask{overlapped, critical}
}

// runRecovery waits for a phase and runs its repair only once a page is
// damaged (§5.2/§7). Damage present when the phase starts: AFEIR submits
// the overlapped repair (lower priority, ordered after the phase's
// producers, Fig 2b). Damage that shows up during the phase — a loss
// fired at a task start, or an ABFT detection — is repaired once the
// phase finished: FEIR's critical repair with late rights (Fig 2a), or
// AFEIR's overlapped body without them. The latter sees exactly what the
// overlapped task would have seen, since that task starts only after
// every producer of the phase.
func (s *solverBase) runRecovery(r recoveryTask, after, phase []*taskrt.Handle) {
	afeir := s.cfg.Method == MethodAFEIR
	if afeir && s.space.AnyFault() {
		r.overlapped.Submit(after)
		s.rt.WaitAll(phase)
		r.overlapped.Wait()
		return
	}
	s.rt.WaitAll(phase)
	if !s.resilient || !s.space.AnyFault() {
		return
	}
	if afeir {
		r.critical = r.overlapped
	}
	r.critical.Submit(nil)
	r.critical.Wait()
}

// endPhase is a phase end: the phase's repair task, if a page is
// damaged, then the boundary with table t. It reports whether the
// iteration was consumed.
func (s *solverBase) endPhase(r recoveryTask, t *repairTable, after, phase []*taskrt.Handle) (consumed bool) {
	s.runRecovery(r, after, phase)
	return s.boundary(t)
}

// blankAllFailed remaps every failed page of the space to a blank one and
// clears the fault bits — the Trivial forward recovery (§4.1).
func blankAllFailed(sp *pagemem.Space) { blankFailed(sp.Vectors()) }

// blankFailed blanks the failed pages of the listed vectors.
func blankFailed(vs []*pagemem.Vector) {
	for _, v := range vs {
		for _, p := range v.FailedPages() {
			v.Remap(p)
			v.MarkRecovered(p)
		}
	}
}
