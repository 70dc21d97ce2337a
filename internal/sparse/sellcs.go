package sparse

// SELL-C-σ kernel shadow: the sliced-ELLPACK layout (Kreutzer et al.) for
// short-row matrices whose nonzeros do NOT sit on a handful of diagonals
// (unstructured meshes, graph Laplacians) — the family the DIA shadow
// rejects. Rows are sorted by descending length inside windows of σ rows,
// then packed in chunks of C rows stored column-major: the SpMV inner
// loop walks C lanes at a time over contiguous value/index streams with
// no per-row slice headers and no per-row loop setup, which is where the
// row-major CSR kernel loses its time when rows are short. The shadow is
// built by BuildIndex32 when the matrix is square, large enough to be
// memory-bound, short-rowed on average and padded by at most 25%
// (sellMinRows / sellMaxAvgRow / sellWasteNum below — thresholds set from
// the kernels microbench so the shadow is only selected where it beats
// the narrow-index CSR kernel); DIA still wins whenever it qualifies.
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
// their partials in a second ascending-row pass over the window while it
// is still cache-hot (the DIA shadow does the same for the blocks its
// last diagonal group does not cover whole), preserving the CSR
// reduction order bitwise.

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
// does not qualify. Must run after buildDIA and the narrow-index build:
// DIA wins when both qualify, and the packed column indices reuse the
// int32 range check.
func (a *CSR) buildSELL() {
	a.sellPtr, a.sellWin = nil, nil
	a.sellRows, a.sellLens, a.sellMin = nil, nil, nil
	a.sellVals, a.sellCols = nil, nil
	if a.diaOffs != nil || a.cols32 == nil {
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
	rowLen := func(i int32) int { return a.RowPtr[i+1] - a.RowPtr[i] }
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
				base := a.RowPtr[row]
				for j := 0; j < rowLen(row); j++ {
					a.sellVals[cursor+j*sellC+l] = a.Vals[base+j]
					a.sellCols[cursor+j*sellC+l] = a.cols32[base+j]
				}
			}
			cursor += width * sellC
			chunk++
		}
	}
	a.sellPtr[numChunks] = int32(cursor)
	a.sellWin[nw] = int32(numChunks)
}

// sellChunk accumulates the per-lane row sums of chunk c into acc: a
// dense unguarded sweep up to the chunk's shortest real row, then a
// ragged tail guarded by each lane's length. Lanes without a backing
// row accumulate padding slots (0·x[0]) that the callers never store.
//
//due:hotpath
func (a *CSR) sellChunk(x []float64, c int, acc *[sellC]float64) {
	base := int(a.sellPtr[c])
	width := (int(a.sellPtr[c+1]) - base) / sellC
	lens := a.sellLens[c*sellC : (c+1)*sellC]
	minL := int(a.sellMin[c])
	vals := a.sellVals[base : base+width*sellC]
	cols := a.sellCols[base : base+width*sellC]
	for l := range acc {
		acc[l] = 0
	}
	k := 0
	for j := 0; j < minL; j++ {
		for l := 0; l < sellC; l++ {
			acc[l] += vals[k] * x[cols[k]]
			k++
		}
	}
	for j := minL; j < width; j++ {
		for l := 0; l < sellC; l++ {
			if int32(j) < lens[l] {
				acc[l] += vals[k] * x[cols[k]]
			}
			k++
		}
	}
}

// mulVecRangeSELL computes y[lo:hi] = (A*x)[lo:hi] from the SELL shadow.
// Chunks never cross a σ window, so only the windows at the range
// boundaries need the per-lane row-range guard on the scatter.
//
//due:hotpath
func (a *CSR) mulVecRangeSELL(x, y []float64, lo, hi int) {
	w0, w1 := lo/sellSigma, (hi-1)/sellSigma
	for w := w0; w <= w1; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > a.N {
			whi = a.N
		}
		full := lo <= wlo && whi <= hi
		for c := int(a.sellWin[w]); c < int(a.sellWin[w+1]); c++ {
			var acc [sellC]float64
			a.sellChunk(x, c, &acc)
			rows := a.sellRows[c*sellC : (c+1)*sellC]
			if full {
				for l, r := range rows {
					if r >= 0 {
						y[r] = acc[l]
					}
				}
				continue
			}
			for l, r := range rows {
				if ri := int(r); r >= 0 && ri >= lo && ri < hi {
					y[ri] = acc[l]
				}
			}
		}
	}
}

// mulVecDotRangeSELL is the fused variant: the dot partials are taken in
// a short ascending-row pass over each window while it is still hot — the
// same discipline (and bitwise the same reduction order) as the DIA and
// CSR fused kernels.
//
//due:hotpath
func (a *CSR) mulVecDotRangeSELL(x, y []float64, lo, hi int) (xy, yy float64) {
	w0, w1 := lo/sellSigma, (hi-1)/sellSigma
	for w := w0; w <= w1; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > a.N {
			whi = a.N
		}
		b0, b1 := max(lo, wlo), min(hi, whi)
		a.mulVecRangeSELL(x, y, b0, b1)
		xb := x[b0:b1]
		yb := y[b0:b1:b1]
		for i, v := range xb {
			u := yb[i]
			xy += v * u
			yy += u * u
		}
	}
	return xy, yy
}

// mulVecDotVecRangeSELL fuses the <y, w> partial instead.
//
//due:hotpath
func (a *CSR) mulVecDotVecRangeSELL(x, y, w []float64, lo, hi int) (wy float64) {
	w0, w1 := lo/sellSigma, (hi-1)/sellSigma
	for wi := w0; wi <= w1; wi++ {
		wlo, whi := wi*sellSigma, (wi+1)*sellSigma
		if whi > a.N {
			whi = a.N
		}
		b0, b1 := max(lo, wlo), min(hi, whi)
		a.mulVecRangeSELL(x, y, b0, b1)
		wb := w[b0:b1]
		yb := y[b0:b1:b1]
		for i, v := range wb {
			wy += yb[i] * v
		}
	}
	return wy
}

// ShadowName reports which kernel shadow MulVecRange dispatches to:
// "dia", "sell", "csr32" or "csr".
func (a *CSR) ShadowName() string {
	switch {
	case a.diaOffs != nil:
		return "dia"
	case a.sellPtr != nil:
		return "sell"
	case a.cols32 != nil:
		return "csr32"
	default:
		return "csr"
	}
}

// DisableShadow drops the named shadow ("dia", "sell" or "int32") so
// benchmarks and tests can compare dispatch tiers on the same matrix.
// Dropping "dia" does not resurrect a SELL shadow the DIA build
// suppressed; call BuildIndex32 variants by hand for that.
func (a *CSR) DisableShadow(name string) {
	switch name {
	case "dia":
		a.diaOffs, a.diaVals = nil, nil
	case "sell":
		a.sellPtr, a.sellWin = nil, nil
		a.sellRows, a.sellLens, a.sellMin = nil, nil, nil
		a.sellVals, a.sellCols = nil, nil
	case "int32":
		a.cols32, a.rowPtr32 = nil, nil
	}
}
