package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randRange draws a half-open subrange of [0, n).
func randRange(rng *rand.Rand, n int) (int, int) {
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo) + 1
	return lo, hi
}

// The four equivalence properties hold each fused kernel to its unfused
// composition — the producing kernel, then DotRange over what it
// produced — with the same bits (or NaN on both sides): a stormed solve
// is exact because recovery rebuilds a lost page's fused partial with
// DotRange, bit for bit.

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
		return sameFloat(xy, wantXY) && sameFloat(yy, wantYY)
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
		return sameFloat(wy, wantWY)
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
		return sameFloat(yy, wantYY)
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
		return sameFloat(oo, wantOO) && sameFloat(oo2, wantOO) && sameFloat(ow, wantOW)
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
		want, ref := make([]float64, rhi-rlo), WithArrays(a)
		for i := rlo; i < rhi; i++ {
			var s float64
		scan:
			for k := ref.RowPtr[i]; k < ref.RowPtr[i+1]; k++ {
				c := ref.Cols[k]
				for _, ex := range exclude {
					if int(c) >= ex[0] && int(c) < ex[1] {
						continue scan
					}
				}
				s += ref.Vals[k] * x[c]
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

// diaOperator builds the n×n matrix with a random entry on every
// reachable slot of the given diagonals except each seventh off-diagonal
// one, which the shadow pads with a zero the CSR row does not have.
func diaOperator(rng *rand.Rand, n int, offs []int) *CSR {
	var tr []Triplet
	for i := 0; i < n; i++ {
		for _, o := range offs {
			if j := i + o; j >= 0 && j < n && (o == 0 || (i+j)%7 != 0) {
				tr = append(tr, Triplet{i, j, rng.NormFloat64()})
			}
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

// TestDIAShadowMatchesGenericCSR pins the grouped DIA traversal to the
// generic CSR kernels BITWISE — y, the rows outside the range, and every
// partial of all three entry points (w a third vector, w = x, w = y) —
// on 1 to 27 diagonals, on matrices shorter than a group, a block or an
// offset, and on row ranges chosen against the clip arithmetic: wholly
// inside the zone within max|o| of either end (where a far diagonal
// reaches no row of the range at all), shorter than the largest offset,
// across a diaBlock boundary, and random. stencil27 is the pattern of
// matgen.Poisson3D27, whose far offsets (±43 at 6³, ±157 at 12³) put
// whole pages in that zone.
func TestDIAShadowMatchesGenericCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type op struct {
		name string
		nd   int // diagonals once n exceeds every offset
		a    *CSR
	}
	var ops []op
	for _, offs := range [][]int{
		{0},
		{-1, 0},
		{-1, 0, 1},
		{-30, -1, 0, 2},
		{-20, -1, 0, 1, 20}, // 2-D 5-point
		{-45, -3, -1, 0, 1, 3, 45},
		{-45, -3, -2, -1, 0, 1, 3, 45},
		{-21, -20, -19, -1, 0, 1, 19, 20, 21}, // 2-D 9-point
	} {
		for _, n := range []int{1, 5, 511, 513, 1030} {
			ops = append(ops, op{fmt.Sprintf("band%d/n=%d", len(offs), n), len(offs), diaOperator(rng, n, offs)})
		}
	}
	ops = append(ops, op{"27pt/6^3", 27, stencil27(6)}, op{"27pt/12^3", 27, stencil27(12)})

	for _, o := range ops {
		a, n := o.a, o.a.N
		if a.ShadowName() != "dia" {
			t.Fatalf("%s: shadow %s, want dia", o.name, a.ShadowName())
		}
		far := max(-a.diaOffs[0], a.diaOffs[len(a.diaOffs)-1])
		if n > 45 && len(a.diaOffs) != o.nd {
			t.Fatalf("%s: %d diagonals, want %d", o.name, len(a.diaOffs), o.nd)
		}
		g := a.Clone()
		g.DisableShadow("dia")
		g.DisableShadow("sell")
		g.DisableShadow("int32")

		ranges := [][2]int{
			{0, n}, {0, far}, {1, far - 1}, {0, far / 2}, {far / 3, far/3 + 1},
			{n - far, n}, {n - far/2, n}, {n - far + 1, n - 1},
			{n / 2, n/2 + far/2}, {n / 3, n/3 + far - 1},
			{diaBlock - 3, diaBlock + 5}, {diaBlock - far, n}, {1, diaBlock + 1},
		}
		for i := 0; i < 20; i++ {
			lo, hi := randRange(rng, n)
			ranges = append(ranges, [2]int{lo, hi})
		}
		x, w := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], w[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		want, got := make([]float64, n), make([]float64, n)
		// NaN outside the range must survive: a group that spills over
		// its block writes there.
		reset := func() { Fill(want, math.NaN()); Fill(got, math.NaN()) }
		sameY := func(kernel string, lo, hi int) {
			t.Helper()
			for i := range got {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("%s rows [%d,%d) %s: y[%d] dia=%v csr=%v", o.name, lo, hi, kernel, i, got[i], want[i])
				}
			}
		}
		for _, r := range ranges {
			lo, hi := max(r[0], 0), min(r[1], n)
			if lo >= hi {
				continue
			}
			reset()
			g.MulVecRange(x, want, lo, hi)
			a.MulVecRange(x, got, lo, hi)
			sameY("MulVecRange", lo, hi)

			reset()
			wantXY, wantYY := g.MulVecDotRange(x, want, lo, hi)
			xy, yy := a.MulVecDotRange(x, got, lo, hi)
			sameY("MulVecDotRange", lo, hi)
			if xy != wantXY || yy != wantYY {
				t.Fatalf("%s rows [%d,%d) MulVecDotRange: (%v,%v) csr (%v,%v)", o.name, lo, hi, xy, yy, wantXY, wantYY)
			}

			for _, alias := range []string{"w", "x", "y"} {
				reset()
				ww, wg := w, w
				switch alias {
				case "x":
					ww, wg = x, x
				case "y":
					ww, wg = want, got
				}
				wantWY := g.MulVecDotVecRange(x, want, ww, lo, hi)
				wy := a.MulVecDotVecRange(x, got, wg, lo, hi)
				sameY("MulVecDotVecRange w="+alias, lo, hi)
				if wy != wantWY {
					t.Fatalf("%s rows [%d,%d) MulVecDotVecRange w=%s: %v csr %v", o.name, lo, hi, alias, wy, wantWY)
				}
			}
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
