package sparse

// SELL-C-σ kernel shadow: the sliced-ELLPACK layout (Kreutzer et al.) for
// short-row matrices whose nonzeros do NOT sit on a handful of diagonals
// (unstructured meshes, graph Laplacians) — the family the DIA shadow
// rejects. Rows are sorted by descending length inside windows of σ rows,
// then packed in chunks of C rows stored column-major: the SpMV inner
// loop walks C lanes at a time over contiguous value/index streams with
// no per-row slice headers and no per-row loop setup, which is where the
// row-major CSR kernel loses its time when rows are short. The shadow is
// built by BuildShadows when the matrix is square, large enough to be
// memory-bound, short-rowed on average and padded by at most 25%
// (sellMinRows / sellMaxAvgRow / sellWasteNum below — thresholds set from
// the kernels microbench so the shadow is only selected where it beats
// the CSR kernel); DIA still wins whenever it qualifies.
//
// Exactness: each row's nonzeros occupy consecutive j-slots of its lane
// in original CSR (ascending-column) order, and the lane accumulator adds
// them in j order, so the per-row accumulation order is identical to the
// CSR kernels and the produced values match bitwise. Padding slots are
// only ever accumulated into lanes that have no backing row (their sums
// are discarded, never stored), and real lanes are guarded by their row
// length in the ragged tail — a padded +0.0 product can therefore never
// perturb a real row's sum (unlike zero-padding schemes, which break
// bitwise parity when a partial sum is -0.0). The fused dot variants take
// their partials in a second pass over each window while it is still
// cache-hot, in the package's reduction order (fused.go), so they match
// the CSR and DIA kernels bitwise.

const (
	sellC       = 8   // chunk height: lanes per chunk
	sellSigma   = 256 // sorting window, in rows
	sellMinRows = 512 // below this the matrix is cache-resident anyway
	// Average nonzeros per row above which the per-row overhead the layout
	// amortises is already negligible in the row-major kernel.
	sellMaxAvgRow = 32
	// Padding budget: padded slots may exceed nnz by at most 1/4.
	sellWasteDen = 4
)

// buildSELL populates the SELL-C-σ shadow, or clears it when the matrix
// does not qualify. Must run after buildDIA: DIA wins when both qualify.
func (a *CSR) buildSELL() {
	a.DisableShadow("sell")
	if a.diaOffs != nil {
		return
	}
	n := a.N
	nnz := len(a.Vals)
	if a.N != a.M || n < sellMinRows || nnz == 0 || nnz/n > sellMaxAvgRow {
		return
	}

	nw := (n + sellSigma - 1) / sellSigma
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rowLen := func(i int32) int { return int(a.RowPtr[i+1] - a.RowPtr[i]) }
	// Per-window insertion sort by (length desc, row asc): windows are
	// small and near-sorted inputs (constant-stencil rows) cost O(σ).
	for w := 0; w < nw; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > n {
			whi = n
		}
		win := order[wlo:whi]
		for i := 1; i < len(win); i++ {
			for j := i; j > 0; j-- {
				lj, lp := rowLen(win[j]), rowLen(win[j-1])
				if lj < lp || (lj == lp && win[j] > win[j-1]) {
					break
				}
				win[j], win[j-1] = win[j-1], win[j]
			}
		}
	}

	// Size pass: chunk widths are the first (longest) lane of each chunk.
	numChunks := 0
	padded := 0
	for w := 0; w < nw; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > n {
			whi = n
		}
		for c := wlo; c < whi; c += sellC {
			padded += rowLen(order[c]) * sellC
			numChunks++
		}
	}
	if padded > nnz+nnz/sellWasteDen {
		return
	}

	a.sellPtr = make([]int32, numChunks+1)
	a.sellWin = make([]int32, nw+1)
	a.sellRows = make([]int32, numChunks*sellC)
	a.sellLens = make([]int32, numChunks*sellC)
	a.sellMin = make([]int32, numChunks)
	a.sellVals = make([]float64, padded)
	a.sellCols = make([]int32, padded)

	chunk, cursor := 0, 0
	for w := 0; w < nw; w++ {
		a.sellWin[w] = int32(chunk)
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > n {
			whi = n
		}
		for c := wlo; c < whi; c += sellC {
			lanes := order[c:min(c+sellC, whi)]
			width := rowLen(lanes[0])
			minL := rowLen(lanes[len(lanes)-1]) // window sorted desc
			a.sellPtr[chunk] = int32(cursor)
			a.sellMin[chunk] = int32(minL)
			for l := 0; l < sellC; l++ {
				li := chunk*sellC + l
				if l >= len(lanes) {
					a.sellRows[li], a.sellLens[li] = -1, 0
					continue
				}
				row := lanes[l]
				a.sellRows[li] = row
				a.sellLens[li] = int32(rowLen(row))
				base := int(a.RowPtr[row])
				for j := 0; j < rowLen(row); j++ {
					a.sellVals[cursor+j*sellC+l] = a.Vals[base+j]
					a.sellCols[cursor+j*sellC+l] = a.Cols[base+j]
				}
			}
			cursor += width * sellC
			chunk++
		}
	}
	a.sellPtr[numChunks] = int32(cursor)
	a.sellWin[nw] = int32(numChunks)
}

// sellChunk returns the row sums of chunk c's eight lanes, held in
// registers for the whole chunk: a dense unguarded sweep up to the chunk's
// shortest real row, then a ragged tail guarded by each lane's length.
// Lanes without a backing row sum padding slots (0·x[0]) that the caller
// never stores.
//
//due:hotpath
func (a *CSR) sellChunk(x []float64, c int) (s0, s1, s2, s3, s4, s5, s6, s7 float64) {
	vals := a.sellVals[a.sellPtr[c]:a.sellPtr[c+1]]
	cols := a.sellCols[a.sellPtr[c]:a.sellPtr[c+1]]
	k, dense := 0, int(a.sellMin[c])*sellC
	for ; k < dense; k += sellC {
		v := vals[k : k+sellC : k+sellC]
		j := cols[k : k+sellC : k+sellC]
		s0 += v[0] * x[j[0]]
		s1 += v[1] * x[j[1]]
		s2 += v[2] * x[j[2]]
		s3 += v[3] * x[j[3]]
		s4 += v[4] * x[j[4]]
		s5 += v[5] * x[j[5]]
		s6 += v[6] * x[j[6]]
		s7 += v[7] * x[j[7]]
	}
	lens := a.sellLens[c*sellC : c*sellC+sellC : c*sellC+sellC]
	for w := a.sellMin[c]; k < len(vals); w, k = w+1, k+sellC {
		v := vals[k : k+sellC : k+sellC]
		j := cols[k : k+sellC : k+sellC]
		if w < lens[0] {
			s0 += v[0] * x[j[0]]
		}
		if w < lens[1] {
			s1 += v[1] * x[j[1]]
		}
		if w < lens[2] {
			s2 += v[2] * x[j[2]]
		}
		if w < lens[3] {
			s3 += v[3] * x[j[3]]
		}
		if w < lens[4] {
			s4 += v[4] * x[j[4]]
		}
		if w < lens[5] {
			s5 += v[5] * x[j[5]]
		}
		if w < lens[6] {
			s6 += v[6] * x[j[6]]
		}
		if w < lens[7] {
			s7 += v[7] * x[j[7]]
		}
	}
	return
}

// sellStore writes a lane's sum to its row when the lane has a row in
// [lo, hi).
func sellStore(y []float64, r int32, lo, hi int, s float64) {
	if ri := int(r); ri >= lo && ri < hi {
		y[ri] = s
	}
}

// mulVecRangeSELL computes y[lo:hi] = (A*x)[lo:hi] from the SELL shadow,
// scattering each chunk's lane sums straight from registers; a padding
// lane's row is -1, outside every range.
//
//due:hotpath
func (a *CSR) mulVecRangeSELL(x, y []float64, lo, hi int) {
	for c := int(a.sellWin[lo/sellSigma]); c < int(a.sellWin[(hi-1)/sellSigma+1]); c++ {
		s0, s1, s2, s3, s4, s5, s6, s7 := a.sellChunk(x, c)
		rows := a.sellRows[c*sellC : c*sellC+sellC : c*sellC+sellC]
		sellStore(y, rows[0], lo, hi, s0)
		sellStore(y, rows[1], lo, hi, s1)
		sellStore(y, rows[2], lo, hi, s2)
		sellStore(y, rows[3], lo, hi, s3)
		sellStore(y, rows[4], lo, hi, s4)
		sellStore(y, rows[5], lo, hi, s5)
		sellStore(y, rows[6], lo, hi, s6)
		sellStore(y, rows[7], lo, hi, s7)
	}
}

// mulVecDotRangeSELL is the fused variant: the dot partials are taken in
// a pass over each window's rows while they are still hot. Row i's terms
// go to lane (i−lo)&3, so a window whose first row b0 is not lo+4k runs
// its pass on lanes turned by b0−lo.
//
//due:hotpath
func (a *CSR) mulVecDotRangeSELL(x, y []float64, lo, hi int) (xy, yy float64) {
	var xl, yl lanes
	for w := lo / sellSigma; w <= (hi-1)/sellSigma; w++ {
		b0, b1 := max(lo, w*sellSigma), min(hi, (w+1)*sellSigma)
		a.mulVecRangeSELL(x, y, b0, b1)
		r := b0 - lo
		xl = dotLanes(xl.rot(r), x[b0:b1], y[b0:b1]).rot(-r)
		yl = dotLanes(yl.rot(r), y[b0:b1], y[b0:b1]).rot(-r)
	}
	return xl.sum(), yl.sum()
}

// mulVecDotVecRangeSELL fuses the <y, w> partial instead.
//
//due:hotpath
func (a *CSR) mulVecDotVecRangeSELL(x, y, w []float64, lo, hi int) (wy float64) {
	var wl lanes
	for wi := lo / sellSigma; wi <= (hi-1)/sellSigma; wi++ {
		b0, b1 := max(lo, wi*sellSigma), min(hi, (wi+1)*sellSigma)
		a.mulVecRangeSELL(x, y, b0, b1)
		r := b0 - lo
		wl = dotLanes(wl.rot(r), y[b0:b1], w[b0:b1]).rot(-r)
	}
	return wl.sum()
}

// ShadowName reports which kernel shadow MulVecRange dispatches to:
// "dia", "sell", or "csr32" for the CSR arrays themselves (whose index is
// int32).
func (a *CSR) ShadowName() string {
	switch {
	case a.diaOffs != nil:
		return "dia"
	case a.sellPtr != nil:
		return "sell"
	default:
		return "csr32"
	}
}

// DisableShadow drops the named shadow ("dia" or "sell") so benchmarks
// and tests can compare dispatch tiers on the same matrix. Dropping "dia"
// from an operator held as its diagonals first rebuilds its CSR arrays
// from them; it does not resurrect a SELL shadow the DIA build suppressed; call
// buildSELL by hand for that. "int32" is accepted and does nothing: the
// CSR arrays are the int32 tier.
func (a *CSR) DisableShadow(name string) {
	switch name {
	case "dia":
		if a.diaOnly() {
			a.RowPtr, a.Cols, a.Vals = a.rowArrays()
		}
		a.diaOffs, a.diaVals = nil, nil
	case "sell":
		a.sellPtr, a.sellWin = nil, nil
		a.sellRows, a.sellLens, a.sellMin = nil, nil, nil
		a.sellVals, a.sellCols = nil, nil
	}
}
