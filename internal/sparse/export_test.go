package sparse

// The halves of the Cholesky block solve, for band_test.go's benchmarks
// and its pin on the forward pass's summation order.

// ForwardSubst solves L*y = b in place as solve does.
func (c *Cholesky) ForwardSubst(b []float64) { c.forward(b) }

// BackSubst solves Lᵀ*x = y in place as solve does.
func (c *Cholesky) BackSubst(b []float64) { backSubst(c.n, c.bw, c.diag, c.cols, b) }

// ForwardSubstByColumn is the column sweep taken one column at a time:
// the reference for the order in which the grouped sweep must subtract.
func (c *Cholesky) ForwardSubstByColumn(b []float64) {
	off := 0
	for k := 0; k < c.n; k++ {
		w := min(c.n-1-k, c.bw)
		yk := b[k] / c.diag[k]
		b[k] = yk
		for t, l := range c.cols[off : off+w] {
			b[k+1+t] -= l * yk
		}
		off += w
	}
}

// Swaps counts the elimination steps that interchanged rows.
func (f *LU) Swaps() int {
	n := 0
	for k, p := range f.ipiv {
		if int(p) != k {
			n++
		}
	}
	return n
}

// BlockOrder is the order a block factor was built in, row k of the
// factored block being row p[k] of the block: nil for the natural order
// (and for QR, which is always built in it).
func BlockOrder(s BlockSolver) []int {
	switch f := s.(type) {
	case *Cholesky:
		return f.o.perm(f.n)
	case *LU:
		return f.o.perm(f.n)
	}
	return nil
}

// perm returns the order as p (row k of the renumbered block is row
// p[k]), or nil for the identity.
func (o order) perm(n int) []int {
	if len(o) == 0 {
		return nil
	}
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	for s := 0; s < len(o); {
		k0 := int(^o[s])
		k := k0
		for s++; s < len(o) && o[s] >= 0; s++ {
			p[k] = int(o[s])
			k = int(o[s])
		}
		p[k] = k0
	}
	return p
}

// HalfBandwidth is the half-bandwidth a block factor is stored in: L's
// for Cholesky, the wider of the block's two for LU (-1 for QR).
func HalfBandwidth(s BlockSolver) int {
	switch f := s.(type) {
	case *Cholesky:
		return f.bw
	case *LU:
		return max(f.kl, f.kw-f.kl)
	}
	return -1
}

// CoupledSolver is the factor SolveCoupledBlocks solves the coupled
// system of blocks with.
func (c *BlockSolverCache) CoupledSolver(blocks []int) (BlockSolver, error) {
	_, spans, dim, err := c.coupled(blocks)
	if err != nil {
		return nil, err
	}
	return factorBlock(dim, c.A.spanRows(spans), c.SPD)
}

// DIABackings counts the distinct arrays behind a's DIA shadow: one per
// diagonal, less one per mirrored pair that shares (0 without the shadow).
func DIABackings(a *CSR) int { return len(diaBackings(a.diaVals)) }

// WithArrays is a's twin with its CSR arrays kept: an operator held as
// its diagonals gets them rebuilt from the diagonals. Reference loops
// read the twin's arrays, not the row view under test.
func WithArrays(a *CSR) *CSR {
	b := a.Clone()
	b.DisableShadow("dia")
	return b
}
