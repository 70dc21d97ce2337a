package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// laneSum is the reduction order every range partial of this package
// keeps, written the plain way: over a range's terms, term k goes to
// lane k&3, each lane adds its terms in ascending order from +0.0, and
// the partial is (l0 + l1) + (l2 + l3).
func laneSum(terms []float64) float64 {
	var l [4]float64
	for k, t := range terms {
		l[k&3] += t
	}
	return (l[0] + l[1]) + (l[2] + l[3])
}

// cancelVec draws from values whose pairwise products are about 1e16,
// 1e8 or 1, so that a sum of them loses its small terms against the
// large ones in one order and keeps them in another.
func cancelVec(rng *rand.Rand, n int) []float64 {
	palette := []float64{1e8, -1e8, 1, -1, 3, 0.5}
	v := make([]float64, n)
	for i := range v {
		v[i] = palette[rng.Intn(len(palette))]
	}
	return v
}

// cancelOperator returns a with its values redrawn from a small palette
// (its pattern, and so its shadow, unchanged): y = A x then mixes 1e8 and
// 1 in one row, and cancels to small values in others.
func cancelOperator(rng *rand.Rand, a *CSR) *CSR {
	tr := make([]Triplet, 0, a.NNZ())
	palette := []float64{1, -1, 2, 0.5}
	var buf RowBuf
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i, &buf)
		for _, c := range cols {
			tr = append(tr, Triplet{i, int(c), palette[rng.Intn(len(palette))]})
		}
	}
	return NewCSRFromTriplets(a.N, a.N, tr)
}

// orderRanges returns every length 0…67 starting at each of the given
// anchors plus 1, 2 and 3, and the long ranges given.
func orderRanges(anchors []int, long [][2]int) [][2]int {
	var rs [][2]int
	for _, a := range anchors {
		for r := 1; r <= 3; r++ {
			for m := 0; m <= 67; m++ {
				rs = append(rs, [2]int{a + r, a + r + m})
			}
		}
	}
	return append(rs, long...)
}

// TestReductionLaneOrder holds every range reduction of the package to
// laneSum, bit for bit, on both bodies: DotRange, Dot and the fused
// vector kernels at every length 0…67 from a start of 1, 2 or 3 mod 4,
// and the fused SpMVs on each tier — DIA over ranges that span two or
// more diaBlocks and take the near-edge second pass, SELL over ranges
// that straddle σ windows, and the CSR arrays. The terms cancel (1e16
// against 1), so a serial sum, a lane taken out of turn or a combine in
// another order each give other bits.
func TestReductionLaneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, simd := range []bool{false, true} {
		if simd && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("simd=%v", simd), func(t *testing.T) {
			withBody(simd, func() {
				checkVectorOrder(t, rng)
				checkOperatorOrder(t, rng)
			})
		})
	}
}

func checkVectorOrder(t *testing.T, rng *rand.Rand) {
	t.Helper()
	const n = 4 + 3 + 67 + 4
	terms := func(a, b []float64, lo, hi int) []float64 {
		p := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			p = append(p, a[i]*b[i])
		}
		return p
	}
	check := func(kernel string, lo, hi int, got, want float64) {
		t.Helper()
		if !bitsEqual(got, want) {
			t.Fatalf("%s [%d,%d): %v (%#x), laneSum %v", kernel, lo, hi, got, got, want)
		}
	}
	for _, r := range orderRanges([]int{0, 4}, nil) {
		lo, hi := r[0], r[1]
		x, y0, w := cancelVec(rng, n), cancelVec(rng, n), cancelVec(rng, n)

		check("DotRange", lo, hi, DotRange(x, y0, lo, hi), laneSum(terms(x, y0, lo, hi)))
		check("Dot", lo, hi, Dot(x[lo:hi], y0[lo:hi]), laneSum(terms(x, y0, lo, hi)))

		y := append([]float64(nil), y0...)
		yy := AxpyDotRange(1, x, y, lo, hi)
		check("AxpyDotRange", lo, hi, yy, laneSum(terms(y, y, lo, hi)))

		y = append(y[:0], y0...)
		yy, _ = AxpyDotChecksumRange(1, x, y, lo, hi)
		check("AxpyDotChecksumRange", lo, hi, yy, laneSum(terms(y, y, lo, hi)))

		out := make([]float64, n)
		oo := XpbyNormRange(x, 1, y0, out, lo, hi)
		check("XpbyNormRange", lo, hi, oo, laneSum(terms(out, out, lo, hi)))

		clear(out)
		ow, oo := XpbyDotNormRange(x, 1, y0, out, w, lo, hi)
		check("XpbyDotNormRange <out,w>", lo, hi, ow, laneSum(terms(out, w, lo, hi)))
		check("XpbyDotNormRange <out,out>", lo, hi, oo, laneSum(terms(out, out, lo, hi)))
	}
}

func checkOperatorOrder(t *testing.T, rng *rand.Rand) {
	t.Helper()
	// DIA: 2,600 rows, three diaBlocks; offsets ±70 put the first and
	// last 70 rows in the near-edge pass.
	dia := cancelOperator(rng, diaOperator(rng, 2600, []int{-70, -1, 0, 1, 70}))
	sell := cancelOperator(rng, randShortRowCSR(1000, 3))
	csr := sell.Clone()
	csr.DisableShadow("sell")
	tiers := []struct {
		shadow string
		a      *CSR
		ranges [][2]int
	}{
		{"dia", dia, orderRanges([]int{0, 60, 1300, diaBlock - 32, 2*diaBlock - 4, 2600 - 72},
			[][2]int{{1, 2599}, {3, 2600}, {2, 2*diaBlock + 7}, {diaBlock - 1, 2600}, {69, 2*diaBlock + 1}})},
		{"sell", sell, orderRanges([]int{0, 100, sellSigma - 33, 2*sellSigma - 4, 1000 - 72},
			[][2]int{{1, 999}, {3, 1000}, {sellSigma - 1, 3*sellSigma + 1}, {2, sellSigma + 1}})},
		{"csr32", csr, orderRanges([]int{0, 500, 1000 - 72}, [][2]int{{1, 999}, {3, 1000}})},
	}
	for _, tier := range tiers {
		a, n := tier.a, tier.a.N
		if a.ShadowName() != tier.shadow {
			t.Fatalf("shadow %s, want %s", a.ShadowName(), tier.shadow)
		}
		x, w := cancelVec(rng, n), cancelVec(rng, n)
		y := make([]float64, n)
		for _, r := range tier.ranges {
			lo, hi := r[0], r[1]
			var xyT, yyT, wyT []float64
			xy, yy := a.MulVecDotRange(x, y, lo, hi)
			for i := lo; i < hi; i++ {
				xyT, yyT = append(xyT, x[i]*y[i]), append(yyT, y[i]*y[i])
			}
			wy := a.MulVecDotVecRange(x, y, w, lo, hi)
			for i := lo; i < hi; i++ {
				wyT = append(wyT, y[i]*w[i])
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"MulVecDotRange <x,y>", xy, laneSum(xyT)},
				{"MulVecDotRange <y,y>", yy, laneSum(yyT)},
				{"MulVecDotVecRange <y,w>", wy, laneSum(wyT)},
			} {
				if !bitsEqual(c.got, c.want) {
					t.Fatalf("%s %s [%d,%d): %v, laneSum %v", tier.shadow, c.name, lo, hi, c.got, c.want)
				}
			}
		}
	}
}
