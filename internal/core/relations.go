package core

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/sparse"
)

// relations bundles the Table 1 redundancy relations shared by every
// resilient solver (and the distributed layer): the forward and inverse
// repairs of the residual/iterate pair g = b - A x, and of a
// direction/matvec pair q = A d. Each method rebuilds exactly one page
// from data that is current at the stated versions; CG, BiCGStab and
// GMRES differ only in which versions pair up (double buffering shifts
// the q/d pairing by one iteration in BiCGStab) and in the method-specific
// relations layered on top (GMRES's Hessenberg redundancy). The §2.4
// combined block systems for several connected lost pages of one vector
// live here too, one body behind the iterate and direction entry points.
type Relations struct {
	a       *sparse.CSR
	layout  sparse.BlockLayout
	conn    [][]int
	blocks  *sparse.BlockSolverCache
	b       []float64
	scratch []float64
	one     []int // the group of a single-page inverse
	stats   *Stats
}

// NewRelations builds the relation set for one solver (or one rank of
// the distributed substrate). scratch must hold at least one page of
// elements; stats receives the recovery counters. The blocks cache is
// safe for concurrent recoveries: a block is factored at first use by a
// relation that reads it, once, whoever asks first.
func NewRelations(a *sparse.CSR, layout sparse.BlockLayout, conn [][]int, blocks *sparse.BlockSolverCache, b, scratch []float64, stats *Stats) *Relations {
	return &Relations{a: a, layout: layout, conn: conn, blocks: blocks, b: b, scratch: scratch, one: make([]int, 1), stats: stats}
}

// ForwardResidual rebuilds page p of g at gVer from g = b - A x,
// requiring x current at xVer on the connected pages (Table 1, row 3 lhs).
func (r *Relations) ForwardResidual(g engine.Vec, gVer int64, x engine.Vec, xVer int64, p int) bool {
	if !x.ConnCurrent(r.conn[p], xVer, -1) {
		return false
	}
	lo, hi := r.layout.Range(p)
	r.a.MulVecRangeExcludingCols(x.V.Data, r.scratch, lo, hi, 0, 0)
	for i := lo; i < hi; i++ {
		g.V.Data[i] = r.b[i] - r.scratch[i-lo]
	}
	r.MarkRecovered(g, p, gVer)
	r.stats.RecoveredForward++
	return true
}

// InverseIterate rebuilds page p of x at xVer from
// A_pp x_p = b_p - g_p - Σ_{j≠p} A_pj x_j (Table 1, row 3 rhs), requiring
// g current at gVer on page p and x current at xVer on the other
// connected pages.
func (r *Relations) InverseIterate(x engine.Vec, xVer int64, g engine.Vec, gVer int64, p int) bool {
	return r.inverse(x, xVer, g, gVer, r.b, p)
}

// InverseDirection rebuilds page p of d at dVer from
// A_pp d_p = q_p - Σ_{j≠p} A_pj d_j (Table 1, row 1 rhs), requiring q
// current at qVer on page p (for old-direction recovery that is the old q
// the double buffering of Listing 2 preserves) and the other connected
// pages of d current at dVer.
func (r *Relations) InverseDirection(d engine.Vec, dVer int64, q engine.Vec, qVer int64, p int) bool {
	return r.inverse(d, dVer, q, qVer, nil, p)
}

// inverse is the one body of both inverse relations: v_p at ver from
// A_pp v_p = side_p - Σ_{j≠p} A_pj v_j, where side is b - src for the
// iterate (b non-nil) and src for the direction.
func (r *Relations) inverse(v engine.Vec, ver int64, src engine.Vec, srcVer int64, b []float64, p int) bool {
	if !src.Current(p, srcVer) || !v.ConnCurrent(r.conn[p], ver, p) {
		return false
	}
	r.one[0] = p
	if !solveBlocks(r.a, r.layout, r.blocks, v.V.Data, b, src.V.Data, r.scratch, r.one) {
		return false
	}
	r.MarkRecovered(v, p, ver)
	r.stats.RecoveredInverse++
	return true
}

// CoupledIterate rebuilds the group's pages of x at xVer from the §2.4
// combined system A_GG x_G = b_G - g_G - Σ_{j∉G} A_Gj x_j, for a group of
// at least two pages that are lost together, so that no single-page
// inverse can rebuild them. It requires g current at gVer on every group
// page and x current at xVer on every other page the group's rows read.
func (r *Relations) CoupledIterate(x engine.Vec, xVer int64, g engine.Vec, gVer int64, group []int) bool {
	return r.coupled(x, xVer, g, gVer, r.b, group)
}

// CoupledDirection is CoupledIterate's direction system,
// A_GG d_G = q_G - Σ_{j∉G} A_Gj d_j, requiring q current at qVer on every
// group page.
func (r *Relations) CoupledDirection(d engine.Vec, dVer int64, q engine.Vec, qVer int64, group []int) bool {
	return r.coupled(d, dVer, q, qVer, nil, group)
}

// coupled is the one body of both coupled systems; b as in inverse. The
// group is in ascending page order.
func (r *Relations) coupled(v engine.Vec, ver int64, src engine.Vec, srcVer int64, b []float64, group []int) bool {
	if len(group) < 2 {
		return false
	}
	// src on every group page, and every off-group page the group's rows
	// read, must be current.
	for _, p := range group {
		if !src.Current(p, srcVer) {
			return false
		}
		for _, j := range r.conn[p] {
			if !slices.Contains(group, j) && !v.Current(j, ver) {
				return false
			}
		}
	}
	if !solveBlocks(r.a, r.layout, r.blocks, v.V.Data, b, src.V.Data, r.scratch, group) {
		return false
	}
	for _, p := range group {
		r.MarkRecovered(v, p, ver)
	}
	r.stats.RecoveredCoupled += len(group)
	return true
}

// solveBlocks overwrites the group's pages of v (ascending) with the
// solution of A_GG v_G = side_G - Σ_{j∉G} A_Gj v_j, side being b - src,
// src (b nil) or b (src nil): through the page's factorized diagonal
// block for one page, §2.4's combined block system for several. buf is
// one page of scratch. It reports whether the blocks could be solved.
func solveBlocks(a *sparse.CSR, layout sparse.BlockLayout, blocks *sparse.BlockSolverCache, v, b, src, buf []float64, group []int) bool {
	if len(group) == 1 {
		p := group[0]
		lo, hi := layout.Range(p)
		a.MulVecRangeExcludingCols(v, buf, lo, hi, lo, hi)
		side(buf, b, src, lo, hi)
		if blocks.SolveDiagBlock(p, buf[:hi-lo]) != nil {
			return false
		}
		copy(v[lo:hi], buf[:hi-lo])
		return true
	}
	exclude := make([][2]int, len(group))
	n := 0
	for i, p := range group {
		lo, hi := layout.Range(p)
		exclude[i] = [2]int{lo, hi}
		n += hi - lo
	}
	rhs := make([]float64, 0, n)
	for _, p := range group {
		lo, hi := layout.Range(p)
		part := rhs[len(rhs) : len(rhs)+hi-lo]
		a.MulVecRangeExcludingBlocks(v, part, lo, hi, exclude)
		side(part, b, src, lo, hi)
		rhs = rhs[:len(rhs)+hi-lo]
	}
	// The combined solve reads and returns the right-hand side in
	// ascending page order, the group's.
	if _, err := blocks.SolveCoupledBlocks(group, rhs); err != nil {
		return false
	}
	off := 0
	for _, p := range group {
		lo, hi := layout.Range(p)
		off += copy(v[lo:hi], rhs[off:off+hi-lo])
	}
	return true
}

// side turns the off-block products in out (rows lo..hi) into the
// right-hand side of an inverse relation: b - src - out, src - out when b
// is nil, b - out when src is nil.
func side(out, b, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var rhs float64
		switch {
		case b == nil:
			rhs = src[i]
		case src == nil:
			rhs = b[i]
		default:
			rhs = b[i] - src[i]
		}
		out[i-lo] = rhs - out[i-lo]
	}
}

// ForwardSpMV rebuilds page p of q at qVer by re-running the SpMV rows
// q = A d (Table 1, row 1 lhs), requiring d current at dVer on the
// connected pages.
func (r *Relations) ForwardSpMV(q engine.Vec, qVer int64, d engine.Vec, dVer int64, p int) bool {
	if !d.ConnCurrent(r.conn[p], dVer, -1) {
		return false
	}
	lo, hi := r.layout.Range(p)
	r.a.MulVecRange(d.V.Data, q.V.Data, lo, hi)
	r.MarkRecovered(q, p, qVer)
	r.stats.RecomputedQ++
	return true
}

// PrecondApply rebuilds page p of z at zVer by a partial application of
// the block-diagonal preconditioner to src (§3.2): z_p = M_pp⁻¹ src_p.
// Block diagonality means the relation needs src current at srcVer on
// page p only — no connectivity, no halo.
func (r *Relations) PrecondApply(m engine.BlockApplier, z engine.Vec, zVer int64, src engine.Vec, srcVer int64, p int) bool {
	if !src.Current(p, srcVer) {
		return false
	}
	if err := m.ApplyBlock(p, src.V.Data, z.V.Data); err != nil {
		return false
	}
	r.MarkRecovered(z, p, zVer)
	r.stats.PrecondPartialApplies++
	return true
}

// PrecondUnapply rebuilds page p of d at dVer from its surviving
// preconditioned image d̂ = M⁻¹ d: d_p = M_pp d̂_p, requiring d̂ current at
// hatVer on page p. The inverse partner of PrecondApply, again rank- and
// page-local by block diagonality.
func (r *Relations) PrecondUnapply(m engine.BlockMultiplier, d engine.Vec, dVer int64, dhat engine.Vec, hatVer int64, p int) bool {
	if !dhat.Current(p, hatVer) {
		return false
	}
	if err := m.MulBlock(p, dhat.V.Data, d.V.Data); err != nil {
		return false
	}
	r.MarkRecovered(d, p, dVer)
	r.stats.RecoveredInverse++
	return true
}

// MarkRecovered clears the fault bit and stamps the page (stampless
// vectors just clear the bit).
func (r *Relations) MarkRecovered(v engine.Vec, p int, ver int64) {
	v.V.MarkRecovered(p)
	if v.S != nil {
		v.S[p].Store(ver)
	}
}
