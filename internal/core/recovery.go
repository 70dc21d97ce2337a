package core

import (
	"repro/internal/engine"
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

// pages lists, in ascending order, the pages p for which keep(p) holds.
func (s *CG) pages(keep func(p int) bool) []int {
	var ps []int
	for p := 0; p < s.np; p++ {
		if keep(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// recoverPhase1 is the r1 recovery: repair inputs (g, z, dPrev), then the
// current direction, then q, then fill missing <d,q> partials.
func (s *CG) recoverPhase1(ver int64, beta float64, cur, prev int, allowLate bool) {
	dCur, dPrev := vec(s.d[cur], s.dS[cur]), vec(s.d[prev], s.dS[prev])
	x, g, q := vec(s.x, s.xS), vec(s.g, s.gS), vec(s.q, s.qS)
	src := g
	if s.pre != nil {
		src = vec(s.z, s.zS)
	}
	for pass := 0; pass < 4; pass++ {
		progress := false
		for p := 0; p < s.np; p++ {
			// Inputs at version ver-1. The concurrent <d,q> reductions
			// never read g, z or dPrev, so these repairs are safe even
			// for AFEIR.
			if s.g.Failed(p) && s.gS[p].Load() == ver-1 {
				if s.rel.ForwardResidual(g, ver-1, x, ver-1, p) {
					progress = true
				}
			}
			if s.pre != nil && !src.Current(p, ver-1) && s.zS[p].Load() <= ver-1 {
				if s.rel.PrecondApply(s.pre, src, ver-1, g, ver-1, p) {
					progress = true
				}
			}
			if beta != 0 && !dPrev.Current(p, ver-1) && dPrev.S[p].Load() <= ver-1 {
				// Inverse through the OLD q preserved by double buffering.
				if s.rel.InverseDirection(dPrev, ver-1, q, ver-1, p) {
					progress = true
				}
			}
			// Current direction at version ver.
			if !dCur.Current(p, ver) {
				if allowLate || !dCur.LateFault(p, ver) {
					if src.Current(p, ver-1) && (beta == 0 || dPrev.Current(p, ver-1)) {
						lo, hi := s.layout.Range(p)
						if beta == 0 {
							copy(dCur.V.Data[lo:hi], src.V.Data[lo:hi])
						} else {
							sparse.XpbyOutRange(src.V.Data, beta, dPrev.V.Data, dCur.V.Data, lo, hi)
						}
						s.rel.MarkRecovered(dCur, p, ver)
						s.stats.RecoveredForward++
						progress = true
					} else if s.rel.InverseDirection(dCur, ver, q, ver, p) {
						progress = true
					}
				}
			}
			// q rows at version ver.
			if !q.Current(p, ver) {
				if allowLate || !q.LateFault(p, ver) {
					if s.rel.ForwardSpMV(q, ver, dCur, ver, p) {
						progress = true
					}
				}
			}
		}
		if !progress {
			// Multi-error combined recovery (§2.4): direction pages that
			// are individually stuck, because a connected page is lost
			// too, but have current q — the current direction at ver,
			// else the old one at ver-1 through the old q.
			curGroup := s.pages(func(p int) bool {
				return !dCur.Current(p, ver) && (allowLate || !dCur.LateFault(p, ver)) && q.Current(p, ver)
			})
			if s.rel.CoupledDirection(dCur, ver, q, ver, curGroup) {
				continue
			}
			if beta == 0 {
				break
			}
			prevGroup := s.pages(func(p int) bool {
				return !dPrev.Current(p, ver-1) && dPrev.S[p].Load() <= ver-1 && q.Current(p, ver-1)
			})
			if !s.rel.CoupledDirection(dPrev, ver-1, q, ver-1, prevGroup) {
				break
			}
		}
	}
	// Fill the partial contributions that are now computable.
	for p := 0; p < s.np; p++ {
		if s.dqPart.Missing(p) && dCur.Current(p, ver) && q.Current(p, ver) {
			lo, hi := s.layout.Range(p)
			s.dqPart.Store(p, sparse.DotRange(dCur.V.Data, s.q.Data, lo, hi))
		}
	}
}

// recoverPhase2 is the r2/r3 recovery: repair x and g (and z), the late
// direction/q damage, and fill missing ε partials.
func (s *CG) recoverPhase2(ver int64, cur int, allowLate bool) {
	dCur := vec(s.d[cur], s.dS[cur])
	x, g, q, z := vec(s.x, s.xS), vec(s.g, s.gS), vec(s.q, s.qS), vec(s.z, s.zS)
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
				if dCur.Current(p, ver) {
					sparse.AxpyRange(alpha, dCur.V.Data, s.x.Data, lo, hi)
					// Direct repair outside the checksum-carrying producer:
					// the stored checksum describes the ver-1 content.
					s.x.InvalidateChecksum(p)
					s.xS[p].Store(ver)
					s.stats.RecoveredForward++
					progress = true
				}
			} else if s.x.Failed(p) {
				if s.rel.InverseIterate(x, ver, g, ver, p) {
					progress = true
				}
			}
			// g: forward when skipped, g = b - A x when lost. The ε
			// reductions read g, so AFEIR must leave late poisons alone.
			if s.g.Failed(p) {
				if allowLate || s.gS[p].Load() != ver {
					if s.rel.ForwardResidual(g, ver, x, ver, p) {
						progress = true
					}
				}
			} else if s.gS[p].Load() == ver-1 {
				if q.Current(p, ver) {
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
			if s.pre != nil && !z.Current(p, ver) {
				if allowLate || !z.LateFault(p, ver) {
					if s.rel.PrecondApply(s.pre, z, ver, g, ver, p) {
						progress = true
					}
				}
			}
			// Late damage to the phase-1 outputs, needed next iteration.
			if !dCur.Current(p, ver) {
				if s.rel.InverseDirection(dCur, ver, q, ver, p) {
					progress = true
				}
			}
			if !q.Current(p, ver) {
				if s.rel.ForwardSpMV(q, ver, dCur, ver, p) {
					progress = true
				}
			}
		}
		if !progress {
			group := s.pages(func(p int) bool { return s.x.Failed(p) && g.Current(p, ver) })
			if !s.rel.CoupledIterate(x, ver, g, ver, group) {
				break
			}
		}
	}
	s.fillPhase2Partials(ver)
}

func (s *CG) fillPhase2Partials(ver int64) {
	g, z := vec(s.g, s.gS), vec(s.z, s.zS)
	for p := 0; p < s.np; p++ {
		lo, hi := s.layout.Range(p)
		gOK := g.Current(p, ver)
		if s.ggPart.Missing(p) && gOK {
			s.ggPart.Store(p, sparse.DotRange(s.g.Data, s.g.Data, lo, hi))
		}
		if s.pre != nil && s.zgPart.Missing(p) && gOK && z.Current(p, ver) {
			s.zgPart.Store(p, sparse.DotRange(s.z.Data, s.g.Data, lo, hi))
		}
	}
}

// reconcile runs at the end of each FEIR/AFEIR iteration, with all workers
// quiescent. It retries every outstanding repair with full (late) rights —
// the "next recovery opportunity" for damage AFEIR could not touch
// mid-phase. A page still not current after that is a loss no relation
// can rebuild (§2.4): the Lossy step interpolates the iterate pages that
// are not current and restarts from x.
func (s *CG) reconcile(ver int64) {
	cur, _ := s.buffers(ver)
	s.recoverPhase2(ver, cur, true)

	vs := [...]engine.Vec{vec(s.x, s.xS), vec(s.g, s.gS), vec(s.d[cur], s.dS[cur]), vec(s.q, s.qS), vec(s.z, s.zS)}
	n := len(vs)
	if s.pre == nil {
		n--
	}
	for _, v := range vs[:n] {
		for p := 0; p < s.np; p++ {
			if !v.Current(p, ver) {
				s.lossyRestart(s.pages(func(p int) bool { return !vs[0].Current(p, ver) }), func() { s.restart(ver) })
				return
			}
		}
	}
}
