package core

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/pagemem"
	"repro/internal/sparse"
)

// This file implements the recovery tasks of Figure 1(b): r1 repairs the
// direction/matvec pipeline (d, q, and the <d,q> partial contributions)
// before the α scalar task, r2/r3 repair g, x (and z) and the ε partials
// before the β scalar task. Both run the Table 1 relations:
//
//	forward:  re-run the operation that produced the page
//	          (d = g + βd', q = A d, g = b - A x, z = M⁻¹ g)
//	inverse:  solve the relation for its right-hand side with the
//	          factorized diagonal block (d = A⁻¹q, x = A⁻¹(b - g))
//	coupled:  the multi-error combined block system of §2.4
//
// The allowLate flag distinguishes FEIR from AFEIR: AFEIR recovery runs
// concurrently with the reduction tasks, so it must not rewrite pages the
// reductions may be reading — pages whose stamp is current but whose fault
// bit was set mid-phase ("late" poisons). FEIR recovery starts only after
// every computation of the phase finished, so it repairs those too; this
// is exactly the paper's coverage difference (§5.4).
//
// A recovery task is instantiated only once a DUE has been signalled
// (§5.2/§7, see CG.runRecovery): a phase with no damaged page submits no
// recovery, so r1 always starts with a fault bit set and has no fast
// path. r2/r3 keep theirs for reconcile, which runs every iteration.

// current reports whether page p of vector v holds version ver.
func current(v *pagemem.Vector, stamps []atomic.Int64, p int, ver int64) bool {
	return stamps[p].Load() == ver && !v.Failed(p)
}

// lateFault reports whether page p of v was poisoned after being written
// at version ver (fault bit set, stamp already current).
func lateFault(v *pagemem.Vector, stamps []atomic.Int64, p int, ver int64) bool {
	return stamps[p].Load() == ver && v.Failed(p)
}

// connCurrent reports whether every page of v listed in pages is current
// at ver, optionally skipping one page index.
func connCurrent(v *pagemem.Vector, stamps []atomic.Int64, pages []int, ver int64, skip int) bool {
	for _, j := range pages {
		if j == skip {
			continue
		}
		if !current(v, stamps, j, ver) {
			return false
		}
	}
	return true
}

// recoverGForward rebuilds page p of g at version ver from g = b - A x,
// requiring x current at ver on the connected pages. Table 1, row 3 lhs.
func (s *CG) recoverGForward(p int, ver int64) bool {
	return s.rel.ForwardResidual(vec(s.g, s.gS), ver, vec(s.x, s.xS), ver, p)
}

// recoverXInverse rebuilds page p of x at version ver from
// A_pp x_p = b_p - g_p - Σ_{j≠p} A_pj x_j (Table 1, row 3 rhs), requiring
// g current at ver on page p and x current at ver on the other connected
// pages.
func (s *CG) recoverXInverse(p int, ver int64) bool {
	return s.rel.InverseIterate(vec(s.x, s.xS), ver, vec(s.g, s.gS), ver, p)
}

// recoverDInverse rebuilds page p of a direction buffer at version ver
// from A_pp d_p = q_p - Σ_{j≠p} A_pj d_j (Table 1, row 1 rhs), requiring q
// at the SAME version on page p (for dPrev recovery that is the old q the
// double buffering of Listing 2 preserves) and the other connected pages
// of d current.
func (s *CG) recoverDInverse(d *pagemem.Vector, dS []atomic.Int64, p int, ver int64) bool {
	return s.rel.InverseDirection(engine.Vec{V: d, S: dS}, ver, vec(s.q, s.qS), ver, p)
}

// recomputeQ rebuilds page p of q at version ver by re-running the SpMV
// rows (Table 1, row 1 lhs), requiring d current on the connected pages.
func (s *CG) recomputeQ(d *pagemem.Vector, dS []atomic.Int64, p int, ver int64) bool {
	return s.rel.ForwardSpMV(vec(s.q, s.qS), ver, engine.Vec{V: d, S: dS}, ver, p)
}

// recoverZ rebuilds page p of the preconditioned residual by a partial
// block-Jacobi application (§3.2), requiring g current at ver on page p.
func (s *CG) recoverZ(p int, ver int64) bool {
	return s.rel.PrecondApply(s.pre, vec(s.z, s.zS), ver, vec(s.g, s.gS), ver, p)
}

// coupledRecoverD solves the combined §2.4 system for a set of direction
// pages that are individually unrecoverable but whose q pages are current
// at ver. All direction pages outside the group must be current.
func (s *CG) coupledRecoverD(d *pagemem.Vector, dS []atomic.Int64, group []int, ver int64) bool {
	if len(group) < 2 {
		return false
	}
	inGroup := make(map[int]bool, len(group))
	var exclude [][2]int
	for _, p := range group {
		if s.qS[p].Load() != ver || s.q.Failed(p) {
			return false
		}
		inGroup[p] = true
		lo, hi := s.layout.Range(p)
		exclude = append(exclude, [2]int{lo, hi})
	}
	// Every off-group page read by the group's rows must be current.
	for _, p := range group {
		for _, j := range s.conn[p] {
			if !inGroup[j] && !current(d, dS, j, ver) {
				return false
			}
		}
	}
	var rhs []float64
	for _, p := range group {
		lo, hi := s.layout.Range(p)
		part := make([]float64, hi-lo)
		s.a.MulVecRangeExcludingBlocks(d.Data, part, lo, hi, exclude)
		for i := lo; i < hi; i++ {
			part[i-lo] = s.q.Data[i] - part[i-lo]
		}
		rhs = append(rhs, part...)
	}
	order, err := s.blocks.SolveCoupledBlocks(group, rhs)
	if err != nil {
		return false
	}
	off := 0
	for _, p := range order {
		lo, hi := s.layout.Range(p)
		copy(d.Data[lo:hi], rhs[off:off+hi-lo])
		d.MarkRecovered(p)
		dS[p].Store(ver)
		off += hi - lo
	}
	s.stats.RecoveredCoupled += len(order)
	return true
}

// coupledRecoverX solves the combined system for several lost iterate
// pages, requiring g current at ver on all of them.
func (s *CG) coupledRecoverX(group []int, ver int64) bool {
	if len(group) < 2 {
		return false
	}
	inGroup := make(map[int]bool, len(group))
	var exclude [][2]int
	for _, p := range group {
		if !current(s.g, s.gS, p, ver) {
			return false
		}
		inGroup[p] = true
		lo, hi := s.layout.Range(p)
		exclude = append(exclude, [2]int{lo, hi})
	}
	for _, p := range group {
		for _, j := range s.conn[p] {
			if !inGroup[j] && !current(s.x, s.xS, j, ver) {
				return false
			}
		}
	}
	var rhs []float64
	for _, p := range group {
		lo, hi := s.layout.Range(p)
		part := make([]float64, hi-lo)
		s.a.MulVecRangeExcludingBlocks(s.x.Data, part, lo, hi, exclude)
		for i := lo; i < hi; i++ {
			part[i-lo] = s.b[i] - s.g.Data[i] - part[i-lo]
		}
		rhs = append(rhs, part...)
	}
	order, err := s.blocks.SolveCoupledBlocks(group, rhs)
	if err != nil {
		return false
	}
	off := 0
	for _, p := range order {
		lo, hi := s.layout.Range(p)
		copy(s.x.Data[lo:hi], rhs[off:off+hi-lo])
		s.x.MarkRecovered(p)
		s.xS[p].Store(ver)
		off += hi - lo
	}
	s.stats.RecoveredCoupled += len(order)
	return true
}

// recoverPhase1 is the r1 recovery: repair inputs (g, z, dPrev), then the
// current direction, then q, then fill missing <d,q> partials.
func (s *CG) recoverPhase1(ver int64, beta float64, cur, prev int, allowLate bool) {
	dCur, dCurS := s.d[cur], s.dS[cur]
	dPrev, dPrevS := s.d[prev], s.dS[prev]
	src, srcS := s.g, s.gS
	if s.pre != nil {
		src, srcS = s.z, s.zS
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for p := 0; p < s.np; p++ {
			// Inputs at version ver-1. The concurrent <d,q> reductions
			// never read g, z or dPrev, so these repairs are safe even
			// for AFEIR.
			if s.g.Failed(p) && s.gS[p].Load() == ver-1 {
				if s.recoverGForward(p, ver-1) {
					progress = true
				}
			}
			if s.pre != nil && !current(s.z, s.zS, p, ver-1) && s.zS[p].Load() <= ver-1 {
				if s.recoverZ(p, ver-1) {
					progress = true
				}
			}
			if beta != 0 && !current(dPrev, dPrevS, p, ver-1) && dPrevS[p].Load() <= ver-1 {
				// Inverse through the OLD q preserved by double buffering.
				if s.recoverDInverse(dPrev, dPrevS, p, ver-1) {
					progress = true
				}
			}
			// Current direction at version ver.
			if !current(dCur, dCurS, p, ver) {
				if allowLate || !lateFault(dCur, dCurS, p, ver) {
					if current(src, srcS, p, ver-1) && (beta == 0 || current(dPrev, dPrevS, p, ver-1)) {
						lo, hi := s.layout.Range(p)
						if beta == 0 {
							copy(dCur.Data[lo:hi], src.Data[lo:hi])
						} else {
							sparse.XpbyOutRange(src.Data, beta, dPrev.Data, dCur.Data, lo, hi)
						}
						dCur.MarkRecovered(p)
						dCurS[p].Store(ver)
						s.stats.RecoveredForward++
						progress = true
					} else if s.recoverDInverse(dCur, dCurS, p, ver) {
						progress = true
					}
				}
			}
			// q rows at version ver.
			if !current(s.q, s.qS, p, ver) {
				if allowLate || !lateFault(s.q, s.qS, p, ver) {
					if s.recomputeQ(dCur, dCurS, p, ver) {
						progress = true
					}
				}
			}
		}
		if !progress {
			// Multi-error combined recovery (§2.4): gather direction
			// pages that are individually stuck but have current q.
			var group []int
			for p := 0; p < s.np; p++ {
				if !current(dCur, dCurS, p, ver) &&
					(allowLate || !lateFault(dCur, dCurS, p, ver)) &&
					s.qS[p].Load() == ver && !s.q.Failed(p) {
					group = append(group, p)
				}
			}
			if !s.coupledRecoverD(dCur, dCurS, group, ver) {
				break
			}
		}
	}
	// Fill the partial contributions that are now computable.
	s.fillPhase1Partials(ver, dCur, dCurS)
}

func (s *CG) fillPhase1Partials(ver int64, dCur *pagemem.Vector, dCurS []atomic.Int64) {
	for p := 0; p < s.np; p++ {
		if s.dqPart.Missing(p) && current(dCur, dCurS, p, ver) && current(s.q, s.qS, p, ver) {
			lo, hi := s.layout.Range(p)
			s.dqPart.Store(p, sparse.DotRange(dCur.Data, s.q.Data, lo, hi))
		}
	}
}

// recoverPhase2 is the r2/r3 recovery: repair x and g (and z), the late
// direction/q damage, and fill missing ε partials.
func (s *CG) recoverPhase2(ver int64, cur int, allowLate bool) {
	dCur, dCurS := s.d[cur], s.dS[cur]
	alpha := s.alpha
	if !s.space.AnyFault() {
		// Steady-state fast path for reconcile, which runs every
		// iteration: with no fault bit set anywhere there is nothing to
		// repair — pages can only be stale downstream of a fault. The
		// partial back-fill still runs.
		s.fillPhase2Partials(ver)
		return
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for p := 0; p < s.np; p++ {
			lo, hi := s.layout.Range(p)
			// x: forward when the update was merely skipped, inverse when
			// the page was lost. x is not read by the ε reductions, so
			// both are safe for AFEIR too (r3 runs concurrently, §3.3.2).
			if !s.x.Failed(p) && s.xS[p].Load() == ver-1 {
				if current(dCur, dCurS, p, ver) {
					sparse.AxpyRange(alpha, dCur.Data, s.x.Data, lo, hi)
					// Direct repair outside the checksum-carrying producer:
					// the stored checksum describes the ver-1 content.
					s.x.InvalidateChecksum(p)
					s.xS[p].Store(ver)
					s.stats.RecoveredForward++
					progress = true
				}
			} else if s.x.Failed(p) {
				if s.recoverXInverse(p, ver) {
					progress = true
				}
			}
			// g: forward when skipped, g = b - A x when lost. The ε
			// reductions read g, so AFEIR must leave late poisons alone.
			if s.g.Failed(p) {
				if allowLate || s.gS[p].Load() != ver {
					if s.recoverGForward(p, ver) {
						progress = true
					}
				}
			} else if s.gS[p].Load() == ver-1 {
				if current(s.q, s.qS, p, ver) {
					sparse.AxpyRange(-alpha, s.q.Data, s.g.Data, lo, hi)
					// See the x repair above: stored checksum is ver-1's.
					s.g.InvalidateChecksum(p)
					s.gS[p].Store(ver)
					s.stats.RecoveredForward++
					progress = true
				}
			}
			// z: rebuild by partial preconditioner application. Read by
			// the <z,g> reductions: same late rule.
			if s.pre != nil && !current(s.z, s.zS, p, ver) {
				if allowLate || !lateFault(s.z, s.zS, p, ver) {
					if s.recoverZ(p, ver) {
						progress = true
					}
				}
			}
			// Late damage to the phase-1 outputs, needed next iteration.
			if !current(dCur, dCurS, p, ver) {
				if s.recoverDInverse(dCur, dCurS, p, ver) {
					progress = true
				}
			}
			if !current(s.q, s.qS, p, ver) {
				if s.recomputeQ(dCur, dCurS, p, ver) {
					progress = true
				}
			}
		}
		if !progress {
			var group []int
			for p := 0; p < s.np; p++ {
				if s.x.Failed(p) && current(s.g, s.gS, p, ver) {
					group = append(group, p)
				}
			}
			if !s.coupledRecoverX(group, ver) {
				break
			}
		}
	}
	s.fillPhase2Partials(ver)
}

func (s *CG) fillPhase2Partials(ver int64) {
	for p := 0; p < s.np; p++ {
		lo, hi := s.layout.Range(p)
		gOK := current(s.g, s.gS, p, ver)
		if s.ggPart.Missing(p) && gOK {
			s.ggPart.Store(p, sparse.DotRange(s.g.Data, s.g.Data, lo, hi))
		}
		if s.pre != nil && s.zgPart.Missing(p) && gOK && current(s.z, s.zS, p, ver) {
			s.zgPart.Store(p, sparse.DotRange(s.z.Data, s.g.Data, lo, hi))
		}
	}
}

// reconcile runs at the end of each FEIR/AFEIR iteration, with all workers
// quiescent. It retries every outstanding repair with full (late) rights —
// the "next recovery opportunity" for damage AFEIR could not touch
// mid-phase — then applies the unrecoverable-error policy to whatever is
// left: blank-remap under FallbackIgnore (§5.1), or a Lossy-style
// interpolation + restart under FallbackLossy (§2.4).
func (s *CG) reconcile(ver int64) {
	cur := 0
	if s.doubleBuffer {
		cur = int(ver) % 2
	}
	s.recoverPhase2(ver, cur, true)

	type victim struct {
		v  *pagemem.Vector
		st []atomic.Int64
		p  int
	}
	var leftovers []victim
	collect := func(v *pagemem.Vector, st []atomic.Int64, want int64) {
		for p := 0; p < s.np; p++ {
			if !current(v, st, p, want) {
				leftovers = append(leftovers, victim{v, st, p})
			}
		}
	}
	collect(s.x, s.xS, ver)
	collect(s.g, s.gS, ver)
	collect(s.d[cur], s.dS[cur], ver)
	collect(s.q, s.qS, ver)
	if s.pre != nil {
		collect(s.z, s.zS, ver)
	}
	if len(leftovers) == 0 {
		return
	}
	if s.cfg.Fallback == FallbackLossy {
		s.lossyFallback(ver)
		return
	}
	// FallbackIgnore: blank pages and move on; convergence pays the
	// price, the true-residual guard protects the reported result.
	for _, lv := range leftovers {
		lv.v.Remap(lv.p)
		lv.v.MarkRecovered(lv.p)
		lv.st[lv.p].Store(ver)
		s.stats.Unrecovered++
	}
}
