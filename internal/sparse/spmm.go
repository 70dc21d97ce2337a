package sparse

// SpMM range kernels: the multi-RHS analogue of MulVecRange for the
// batched solve path. A multivector of width b is stored interleaved
// (column-major-by-row): element (i, j) lives at x[i*b+j], so one matrix
// row touches one contiguous b-wide slab per nonzero and the kernels
// read A — the memory-bandwidth bottleneck of the whole iteration —
// exactly once for all b right-hand sides.
//
// Exactness: for every column j the accumulation visits the same
// nonzeros in the same order as the corresponding SpMV kernel, starting
// from the same +0.0, so each column of the result is bitwise equal to
// an independent MulVecRange over that column (property-tested across
// all four shadows in spmm_test.go). That parity is what lets BatchCG
// reproduce b unbatched CG trajectories per column.
//
// MaxBatchWidth caps b so the SELL kernel's chunk accumulator and the
// engine's per-page partial rows can live in fixed-size stack arrays —
// the batched kernels allocate nothing, like every other hot kernel.

// MaxBatchWidth is the largest supported multivector width. Widths
// beyond this see diminishing bandwidth amortization anyway (the x slabs
// start evicting A's stream from cache).
const MaxBatchWidth = 8

// MulMatRange computes rows [lo, hi) of the product of A with the
// interleaved n-by-b multivector x, writing into the same layout in y:
// y[i*b+j] = sum_k A[i][k] * x[k*b+j]. Dispatches across the same
// shadow tiers as MulVecRange.
//
//due:hotpath
func (a *CSR) MulMatRange(x, y []float64, b, lo, hi int) {
	if b == 1 {
		a.MulVecRange(x, y, lo, hi)
		return
	}
	if a.diaOffs != nil {
		a.mulMatRangeDIA(x, y, b, lo, hi)
		return
	}
	if a.sellPtr != nil {
		a.mulMatRangeSELL(x, y, b, lo, hi)
		return
	}
	if a.cols32 != nil {
		a.mulMatRange32(x, y, b, lo, hi)
		return
	}
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		yr := y[i*b : i*b+b : i*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			xr := x[c*b : c*b+b : c*b+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
	}
}

//due:hotpath
func (a *CSR) mulMatRange32(x, y []float64, b, lo, hi int) {
	switch b {
	case 4:
		a.mulMatRange32W4(x, y, lo, hi)
		return
	case 8:
		a.mulMatRange32W8(x, y, lo, hi)
		return
	}
	rp := a.rowPtr32
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.cols32[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		yr := y[i*b : i*b+b : i*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			ci := int(c) * b
			xr := x[ci : ci+b : ci+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
	}
}

// mulMatRange32W4/W8 are the width-specialized tiers: with b a compile-
// time constant the slab becomes a fixed-size array access — one bounds
// check per nonzero instead of per element, and a fully unrolled
// accumulate. Column j's adds keep the exact in-row order of the
// generic loop, so the bitwise-parity invariant is untouched.
//
//due:hotpath
func (a *CSR) mulMatRange32W4(x, y []float64, lo, hi int) {
	const b = 4
	rp := a.rowPtr32
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.cols32[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var acc [b]float64
		for k, c := range cols {
			v := vals[k]
			xr := (*[b]float64)(x[int(c)*b:])
			acc[0] += v * xr[0]
			acc[1] += v * xr[1]
			acc[2] += v * xr[2]
			acc[3] += v * xr[3]
		}
		*(*[b]float64)(y[i*b:]) = acc
	}
}

//due:hotpath
func (a *CSR) mulMatRange32W8(x, y []float64, lo, hi int) {
	const b = 8
	rp := a.rowPtr32
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.cols32[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		var acc [b]float64
		for k, c := range cols {
			v := vals[k]
			xr := (*[b]float64)(x[int(c)*b:])
			acc[0] += v * xr[0]
			acc[1] += v * xr[1]
			acc[2] += v * xr[2]
			acc[3] += v * xr[3]
			acc[4] += v * xr[4]
			acc[5] += v * xr[5]
			acc[6] += v * xr[6]
			acc[7] += v * xr[7]
		}
		*(*[b]float64)(y[i*b:]) = acc
	}
}

// diaBlockMulMat is the DIA block product over an interleaved
// multivector, diagonal-major (unlike the grouped SpMV traversal of
// dia.go — DESIGN §5 says why): zero the y block, then stream each
// diagonal (ascending offsets == ascending in-row column order, the
// bitwise-parity invariant) across it.
//
//due:hotpath
func (a *CSR) diaBlockMulMat(x, y []float64, b, b0, b1, n int) {
	switch b {
	case 4:
		a.diaBlockMulMat4(x, y, b0, b1, n)
		return
	case 8:
		a.diaBlockMulMat8(x, y, b0, b1, n)
		return
	}
	yb := y[b0*b : b1*b]
	for i := range yb {
		yb[i] = 0
	}
	for d, o := range a.diaOffs {
		i0, i1 := diaClip(o, o, b0, b1, n)
		if i0 == i1 {
			continue
		}
		vv := a.diaVals[d][i0:i1]
		xx := x[(i0+o)*b : (i1+o)*b : (i1+o)*b]
		yy := y[i0*b : i1*b : i1*b]
		for k, v := range vv {
			xr := xx[k*b : k*b+b : k*b+b]
			yr := yy[k*b : k*b+b : k*b+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
	}
}

// diaBlockMulMat4/8 are the width-specialized diagonal streams: fixed-
// size array views give one bounds check per diagonal element and an
// unrolled slab update, preserving per-column add order exactly.
//
//due:hotpath
func (a *CSR) diaBlockMulMat4(x, y []float64, b0, b1, n int) {
	const b = 4
	yb := y[b0*b : b1*b]
	for i := range yb {
		yb[i] = 0
	}
	for d, o := range a.diaOffs {
		i0, i1 := diaClip(o, o, b0, b1, n)
		if i0 == i1 {
			continue
		}
		vv := a.diaVals[d][i0:i1]
		xx := x[(i0+o)*b:]
		yy := y[i0*b:]
		for k, v := range vv {
			xr := (*[b]float64)(xx[k*b:])
			yr := (*[b]float64)(yy[k*b:])
			yr[0] += v * xr[0]
			yr[1] += v * xr[1]
			yr[2] += v * xr[2]
			yr[3] += v * xr[3]
		}
	}
}

//due:hotpath
func (a *CSR) diaBlockMulMat8(x, y []float64, b0, b1, n int) {
	const b = 8
	yb := y[b0*b : b1*b]
	for i := range yb {
		yb[i] = 0
	}
	for d, o := range a.diaOffs {
		i0, i1 := diaClip(o, o, b0, b1, n)
		if i0 == i1 {
			continue
		}
		vv := a.diaVals[d][i0:i1]
		xx := x[(i0+o)*b:]
		yy := y[i0*b:]
		for k, v := range vv {
			xr := (*[b]float64)(xx[k*b:])
			yr := (*[b]float64)(yy[k*b:])
			yr[0] += v * xr[0]
			yr[1] += v * xr[1]
			yr[2] += v * xr[2]
			yr[3] += v * xr[3]
			yr[4] += v * xr[4]
			yr[5] += v * xr[5]
			yr[6] += v * xr[6]
			yr[7] += v * xr[7]
		}
	}
}

//due:hotpath
func (a *CSR) mulMatRangeDIA(x, y []float64, b, lo, hi int) {
	n := a.N
	for b0 := lo; b0 < hi; b0 += diaBlock {
		b1 := b0 + diaBlock
		if b1 > hi {
			b1 = hi
		}
		a.diaBlockMulMat(x, y, b, b0, b1, n)
	}
}

// sellChunkMat accumulates the per-lane row slabs of chunk c into acc
// (lane l, column j at acc[l*b+j]): the dense sweep / guarded ragged
// tail structure of sellChunk with a b-wide inner slab. Per (lane,
// column) the adds happen in j-slot order — the scalar kernel's order.
//
//due:hotpath
func (a *CSR) sellChunkMat(x []float64, c, b int, acc *[sellC * MaxBatchWidth]float64) {
	base := int(a.sellPtr[c])
	width := (int(a.sellPtr[c+1]) - base) / sellC
	lens := a.sellLens[c*sellC : (c+1)*sellC]
	minL := int(a.sellMin[c])
	vals := a.sellVals[base : base+width*sellC]
	cols := a.sellCols[base : base+width*sellC]
	av := acc[: sellC*b : sellC*b]
	for l := range av {
		av[l] = 0
	}
	k := 0
	for j := 0; j < minL; j++ {
		for l := 0; l < sellC; l++ {
			v := vals[k]
			ci := int(cols[k]) * b
			xr := x[ci : ci+b : ci+b]
			ar := av[l*b : l*b+b : l*b+b]
			for jb, xv := range xr {
				ar[jb] += v * xv
			}
			k++
		}
	}
	for j := minL; j < width; j++ {
		for l := 0; l < sellC; l++ {
			if int32(j) < lens[l] {
				v := vals[k]
				ci := int(cols[k]) * b
				xr := x[ci : ci+b : ci+b]
				ar := av[l*b : l*b+b : l*b+b]
				for jb, xv := range xr {
					ar[jb] += v * xv
				}
			}
			k++
		}
	}
}

//due:hotpath
func (a *CSR) mulMatRangeSELL(x, y []float64, b, lo, hi int) {
	w0, w1 := lo/sellSigma, (hi-1)/sellSigma
	for w := w0; w <= w1; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > a.N {
			whi = a.N
		}
		full := lo <= wlo && whi <= hi
		for c := int(a.sellWin[w]); c < int(a.sellWin[w+1]); c++ {
			var acc [sellC * MaxBatchWidth]float64
			a.sellChunkMat(x, c, b, &acc)
			rows := a.sellRows[c*sellC : (c+1)*sellC]
			if full {
				for l, r := range rows {
					if r >= 0 {
						copy(y[int(r)*b:int(r)*b+b], acc[l*b:l*b+b])
					}
				}
				continue
			}
			for l, r := range rows {
				if ri := int(r); r >= 0 && ri >= lo && ri < hi {
					copy(y[ri*b:ri*b+b], acc[l*b:l*b+b])
				}
			}
		}
	}
}

// MulMatDotRange is the fused SpMM + per-column block-dot kernel, the
// batch analogue of MulVecDotRange: on top of y[lo:hi) = (A·x)[lo:hi) it
// accumulates, per column j, xy[j] += <x_j, y_j> and yy[j] += <y_j, y_j>
// over the range. Callers pass zeroed (or partial-sum) xy/yy of length
// b. Each column's reduction order matches the scalar fused kernel.
//
//due:hotpath
func (a *CSR) MulMatDotRange(x, y []float64, b, lo, hi int, xy, yy []float64) {
	if a.diaOffs != nil {
		a.mulMatDotRangeDIA(x, y, b, lo, hi, xy, yy)
		return
	}
	if a.sellPtr != nil {
		a.mulMatDotRangeSELL(x, y, b, lo, hi, xy, yy)
		return
	}
	if a.cols32 != nil {
		a.mulMatDotRange32(x, y, b, lo, hi, xy, yy)
		return
	}
	rp := a.RowPtr
	xys := xy[:b:b]
	yys := yy[:b:b]
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		yr := y[i*b : i*b+b : i*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			xr := x[c*b : c*b+b : c*b+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
		xi := x[i*b : i*b+b : i*b+b]
		for j, u := range yr {
			xys[j] += xi[j] * u
			yys[j] += u * u
		}
	}
}

//due:hotpath
func (a *CSR) mulMatDotRange32(x, y []float64, b, lo, hi int, xy, yy []float64) {
	rp := a.rowPtr32
	xys := xy[:b:b]
	yys := yy[:b:b]
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.cols32[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		yr := y[i*b : i*b+b : i*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			ci := int(c) * b
			xr := x[ci : ci+b : ci+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
		xi := x[i*b : i*b+b : i*b+b]
		for j, u := range yr {
			xys[j] += xi[j] * u
			yys[j] += u * u
		}
	}
}

// mulMatDotRangeDIA takes the per-column partials in a second pass over
// each block while it is still L1-hot, in ascending-row order — the
// reduction order of the scalar fused kernels.
//
//due:hotpath
func (a *CSR) mulMatDotRangeDIA(x, y []float64, b, lo, hi int, xy, yy []float64) {
	n := a.N
	xys := xy[:b:b]
	yys := yy[:b:b]
	for b0 := lo; b0 < hi; b0 += diaBlock {
		b1 := b0 + diaBlock
		if b1 > hi {
			b1 = hi
		}
		a.diaBlockMulMat(x, y, b, b0, b1, n)
		xb := x[b0*b : b1*b]
		yb := y[b0*b : b1*b : b1*b]
		j := 0 // rolling column slot: avoids a div per element
		for i, v := range xb {
			u := yb[i]
			xys[j] += v * u
			yys[j] += u * u
			if j++; j == b {
				j = 0
			}
		}
	}
}

//due:hotpath
func (a *CSR) mulMatDotRangeSELL(x, y []float64, b, lo, hi int, xy, yy []float64) {
	w0, w1 := lo/sellSigma, (hi-1)/sellSigma
	xys := xy[:b:b]
	yys := yy[:b:b]
	for w := w0; w <= w1; w++ {
		wlo, whi := w*sellSigma, (w+1)*sellSigma
		if whi > a.N {
			whi = a.N
		}
		b0, b1 := max(lo, wlo), min(hi, whi)
		a.mulMatRangeSELL(x, y, b, b0, b1)
		xb := x[b0*b : b1*b]
		yb := y[b0*b : b1*b : b1*b]
		j := 0 // rolling column slot: avoids a div per element
		for i, v := range xb {
			u := yb[i]
			xys[j] += v * u
			yys[j] += u * u
			if j++; j == b {
				j = 0
			}
		}
	}
}

// MulMatRangeExcludingCols is the recovery-side SpMM: for rows in
// [lo, hi) it computes the product excluding columns [exLo, exHi), into
// the COMPACT interleaved output y[(i-lo)*b+j]. The batch analogue of
// MulVecRangeExcludingCols, used to rebuild the off-block right-hand
// sides of the forward/inverse relations for all b columns in one sweep
// of A's rows. Generic arrays only — recovery runs off the hot path.
//
//due:hotpath
func (a *CSR) MulMatRangeExcludingCols(x, y []float64, b, lo, hi, exLo, exHi int) {
	rp := a.RowPtr
	for i := lo; i < hi; i++ {
		row := rp[i]
		cols := a.Cols[row:rp[i+1]]
		vals := a.Vals[row:rp[i+1]]
		yr := y[(i-lo)*b : (i-lo)*b+b : (i-lo)*b+b]
		for j := range yr {
			yr[j] = 0
		}
		for k, c := range cols {
			if c >= exLo && c < exHi {
				continue
			}
			v := vals[k]
			xr := x[c*b : c*b+b : c*b+b]
			for j, xv := range xr {
				yr[j] += v * xv
			}
		}
	}
}
