package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ulpTol reports whether got equals want to within a few ulps of the
// magnitudes involved. The fused kernels perform the same operations in
// the same order as their unfused compositions, so they should in fact
// agree bitwise; the tolerance only shields the assertion from a future
// reassociating rewrite of either side.
func ulpTol(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) == math.IsNaN(want)
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	if scale == 0 {
		return got == want
	}
	ulp := math.Nextafter(scale, math.Inf(1)) - scale
	return math.Abs(got-want) <= 4*ulp
}

// randRange draws a half-open subrange of [0, n).
func randRange(rng *rand.Rand, n int) (int, int) {
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo) + 1
	return lo, hi
}

// Property: MulVecDotRange ≡ MulVecRange followed by DotRange twice.
func TestPropertyMulVecDotRangeEquivalence(t *testing.T) {
	f := func(mv matrixAndVec, seed int64) bool {
		a, x := mv.A, mv.X
		rng := rand.New(rand.NewSource(seed))
		lo, hi := randRange(rng, a.N)

		want := make([]float64, a.N)
		a.MulVecRange(x, want, lo, hi)
		wantXY := DotRange(x, want, lo, hi)
		wantYY := DotRange(want, want, lo, hi)

		got := make([]float64, a.N)
		xy, yy := a.MulVecDotRange(x, got, lo, hi)
		for i := lo; i < hi; i++ {
			if got[i] != want[i] {
				return false
			}
		}
		return ulpTol(xy, wantXY) && ulpTol(yy, wantYY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVecDotVecRange ≡ MulVecRange followed by DotRange vs w.
func TestPropertyMulVecDotVecRangeEquivalence(t *testing.T) {
	f := func(mv matrixAndVec, seed int64) bool {
		a, x := mv.A, mv.X
		rng := rand.New(rand.NewSource(seed))
		lo, hi := randRange(rng, a.N)
		w := make([]float64, a.N)
		for i := range w {
			w[i] = rng.NormFloat64()
		}

		want := make([]float64, a.N)
		a.MulVecRange(x, want, lo, hi)
		wantWY := DotRange(want, w, lo, hi)

		got := make([]float64, a.N)
		wy := a.MulVecDotVecRange(x, got, w, lo, hi)
		for i := lo; i < hi; i++ {
			if got[i] != want[i] {
				return false
			}
		}
		return ulpTol(wy, wantWY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AxpyDotRange ≡ AxpyRange followed by DotRange(y, y).
func TestPropertyAxpyDotRangeEquivalence(t *testing.T) {
	f := func(mv matrixAndVec, a8 int8, seed int64) bool {
		x := mv.X
		n := len(x)
		alpha := float64(a8) / 16
		rng := rand.New(rand.NewSource(seed))
		lo, hi := randRange(rng, n)
		y0 := make([]float64, n)
		for i := range y0 {
			y0[i] = rng.NormFloat64()
		}

		want := append([]float64(nil), y0...)
		AxpyRange(alpha, x, want, lo, hi)
		wantYY := DotRange(want, want, lo, hi)

		got := append([]float64(nil), y0...)
		yy := AxpyDotRange(alpha, x, got, lo, hi)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return ulpTol(yy, wantYY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: XpbyNormRange and XpbyDotNormRange ≡ XpbyOutRange followed by
// the corresponding DotRange reductions.
func TestPropertyXpbyNormRangeEquivalence(t *testing.T) {
	f := func(mv matrixAndVec, b8 int8, seed int64) bool {
		x := mv.X
		n := len(x)
		beta := float64(b8) / 16
		rng := rand.New(rand.NewSource(seed))
		lo, hi := randRange(rng, n)
		y := make([]float64, n)
		w := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}

		want := make([]float64, n)
		XpbyOutRange(x, beta, y, want, lo, hi)
		wantOO := DotRange(want, want, lo, hi)
		wantOW := DotRange(want, w, lo, hi)

		out1 := make([]float64, n)
		oo := XpbyNormRange(x, beta, y, out1, lo, hi)
		out2 := make([]float64, n)
		ow, oo2 := XpbyDotNormRange(x, beta, y, out2, w, lo, hi)
		for i := lo; i < hi; i++ {
			if out1[i] != want[i] || out2[i] != want[i] {
				return false
			}
		}
		return ulpTol(oo, wantOO) && ulpTol(oo2, wantOO) && ulpTol(ow, wantOW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the merged-cursor MulVecRangeExcludingBlocks matches the
// brute-force per-nonzero scan on arbitrary (unsorted, overlapping, empty)
// exclude range sets.
func TestPropertyExcludingBlocksMergedCursor(t *testing.T) {
	f := func(mv matrixAndVec, seed int64) bool {
		a, x := mv.A, mv.X
		rng := rand.New(rand.NewSource(seed))
		nex := rng.Intn(5)
		exclude := make([][2]int, 0, nex)
		for e := 0; e < nex; e++ {
			lo := rng.Intn(a.N + 1)
			hi := lo + rng.Intn(a.N+1-lo)
			if rng.Intn(4) == 0 {
				lo = hi // deliberately empty range
			}
			exclude = append(exclude, [2]int{lo, hi})
		}
		rlo, rhi := randRange(rng, a.N)

		got := make([]float64, rhi-rlo)
		a.MulVecRangeExcludingBlocks(x, got, rlo, rhi, exclude)

		// Brute force reference (the pre-merge implementation).
		want := make([]float64, rhi-rlo)
		for i := rlo; i < rhi; i++ {
			var s float64
		scan:
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				c := a.Cols[k]
				for _, ex := range exclude {
					if c >= ex[0] && c < ex[1] {
						continue scan
					}
				}
				s += a.Vals[k] * x[c]
			}
			want[i-rlo] = s
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDIAShadowMatchesGenericCSR checks that the diagonal-shadow kernels
// agree with the generic CSR path on stencil-like matrices (where the
// shadow activates), over many random subranges.
func TestDIAShadowMatchesGenericCSR(t *testing.T) {
	n := 500
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4})
		for _, off := range []int{-25, -1, 1, 25} {
			if j := i + off; j >= 0 && j < n {
				tr = append(tr, Triplet{i, j, -1 - float64(off)/100})
			}
		}
	}
	a := NewCSRFromTriplets(n, n, tr)
	if a.diaOffs == nil {
		t.Fatal("diagonal shadow not built for a 5-diagonal matrix")
	}
	// A generic twin: same arrays, no shadows.
	g := &CSR{N: a.N, M: a.M, RowPtr: a.RowPtr, Cols: a.Cols, Vals: a.Vals}

	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	w := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		w[i] = rng.NormFloat64()
	}
	for trial := 0; trial < 200; trial++ {
		lo, hi := randRange(rng, n)
		want := make([]float64, n)
		g.MulVecRange(x, want, lo, hi)
		wantXY := DotRange(x, want, lo, hi)
		wantYY := DotRange(want, want, lo, hi)
		wantWY := DotRange(want, w, lo, hi)

		got := make([]float64, n)
		a.MulVecRange(x, got, lo, hi)
		for i := lo; i < hi; i++ {
			if got[i] != want[i] {
				t.Fatalf("MulVecRange[%d]: dia=%v generic=%v", i, got[i], want[i])
			}
		}
		got2 := make([]float64, n)
		xy, yy := a.MulVecDotRange(x, got2, lo, hi)
		wy := a.MulVecDotVecRange(x, got2, w, lo, hi)
		for i := lo; i < hi; i++ {
			if got2[i] != want[i] {
				t.Fatalf("MulVecDotRange[%d]: dia=%v generic=%v", i, got2[i], want[i])
			}
		}
		if !ulpTol(xy, wantXY) || !ulpTol(yy, wantYY) || !ulpTol(wy, wantWY) {
			t.Fatalf("dots: got (%v,%v,%v) want (%v,%v,%v)", xy, yy, wy, wantXY, wantYY, wantWY)
		}
	}
}

// TestShadowReadsCoversDIAPadding: with NaN in every x element outside
// the reported footprint, a padded slot's 0·NaN would surface in y, so
// finite output over random row ranges means ShadowReads covers every
// load of the DIA kernel — including the ±1 slots a grid-edge row has no
// CSR column for.
func TestShadowReadsCoversDIAPadding(t *testing.T) {
	const nx, n = 20, 500
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4})
		for _, off := range []int{-nx, -1, 1, nx} {
			edge := (off == -1 && i%nx == 0) || (off == 1 && i%nx == nx-1)
			if j := i + off; j >= 0 && j < n && !edge {
				tr = append(tr, Triplet{i, j, -1})
			}
		}
	}
	a := NewCSRFromTriplets(n, n, tr)
	if a.diaOffs == nil {
		t.Fatal("diagonal shadow not built for a 5-point grid")
	}
	rng := rand.New(rand.NewSource(3))
	x, y := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 200; trial++ {
		lo, hi := randRange(rng, n)
		for i := range x {
			x[i] = math.NaN()
		}
		a.ShadowReads(lo, hi, func(c0, c1 int) {
			for c := c0; c < c1; c++ {
				x[c] = 1
			}
		})
		a.MulVecRange(x, y, lo, hi)
		if HasNonFinite(y[lo:hi]) {
			t.Fatalf("rows [%d,%d): the kernel loaded x outside ShadowReads", lo, hi)
		}
	}
}

// TestDIAShadowSkipsIrregularMatrices checks the shadow is not built
// when the diagonal count or padding waste disqualifies the matrix.
func TestDIAShadowSkipsIrregularMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4})
		for e := 0; e < 3; e++ {
			tr = append(tr, Triplet{i, rng.Intn(n), 1})
		}
	}
	a := NewCSRFromTriplets(n, n, tr)
	if a.diaOffs != nil {
		t.Fatal("diagonal shadow built for a random-pattern matrix")
	}
}

func TestMergeRanges(t *testing.T) {
	cases := []struct {
		in, want [][2]int
	}{
		{nil, nil},
		{[][2]int{{3, 3}}, nil},
		{[][2]int{{1, 4}}, [][2]int{{1, 4}}},
		{[][2]int{{5, 9}, {1, 4}}, [][2]int{{1, 4}, {5, 9}}},
		// Touching {1,4}+{4,6} coalesce, then {5,10} overlaps the merged
		// {1,6}: one {1,10} survives; the empty {8,8} is dropped.
		{[][2]int{{1, 4}, {4, 6}, {8, 8}, {5, 10}}, [][2]int{{1, 10}}},
		{[][2]int{{2, 5}, {7, 9}}, [][2]int{{2, 5}, {7, 9}}},
	}
	for _, c := range cases {
		got := mergeRanges(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("mergeRanges(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("mergeRanges(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// Property: PipeCGUpdateRange ≡ the six unfused Xpby/Axpy passes followed
// by the two DotRange reductions, bitwise on the vectors.
func TestPipeCGUpdateMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(96)
		lo, hi := randRange(rng, n)
		alpha := rng.NormFloat64()
		beta := rng.NormFloat64()
		if trial%5 == 0 {
			beta = 0 // the restart step
		}
		mk := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}
		q, z, w, s, r, p, x := mk(), mk(), mk(), mk(), mk(), mk(), mk()

		cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
		z2, w2, s2, r2, p2, x2 := cp(z), cp(w), cp(s), cp(r), cp(p), cp(x)
		XpbyRange(q, beta, z2, lo, hi)
		XpbyRange(w2, beta, s2, lo, hi)
		XpbyRange(r2, beta, p2, lo, hi)
		AxpyRange(alpha, p2, x2, lo, hi)
		AxpyRange(-alpha, s2, r2, lo, hi)
		AxpyRange(-alpha, z2, w2, lo, hi)
		wantGamma := DotRange(r2, r2, lo, hi)
		wantDelta := DotRange(w2, r2, lo, hi)

		gamma, delta := PipeCGUpdateRange(alpha, beta, q, z, w, s, r, p, x, lo, hi)
		for i := lo; i < hi; i++ {
			if z[i] != z2[i] || w[i] != w2[i] || s[i] != s2[i] ||
				r[i] != r2[i] || p[i] != p2[i] || x[i] != x2[i] {
				t.Fatalf("trial %d: fused vectors diverge at %d", trial, i)
			}
		}
		if !ulpTol(gamma, wantGamma) || !ulpTol(delta, wantDelta) {
			t.Fatalf("trial %d: gamma/delta %v,%v want %v,%v", trial, gamma, delta, wantGamma, wantDelta)
		}
	}
}
