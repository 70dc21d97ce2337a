package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// shadowMatrices builds one qualifying matrix per MulVecRange dispatch
// tier: MulMatRange's one row loop must match each of them per column.
func shadowMatrices(t *testing.T) map[string]*CSR {
	t.Helper()
	nx := 40
	var st []Triplet
	for i := 0; i < nx*nx; i++ {
		st = append(st, Triplet{i, i, 4})
		for _, j := range []int{i - nx, i - 1, i + 1, i + nx} {
			if j >= 0 && j < nx*nx {
				st = append(st, Triplet{i, j, -1})
			}
		}
	}
	dia := NewCSRFromTriplets(nx*nx, nx*nx, st)
	sell := randShortRowCSR(1000, 7)
	csr32 := randShortRowCSR(1000, 7)
	csr32.DisableShadow("sell")
	m := map[string]*CSR{"dia": dia, "sell": sell, "csr32": csr32}
	for want, a := range m {
		if got := a.ShadowName(); got != want {
			t.Fatalf("shadow %q selected for the %q fixture", got, want)
		}
	}
	return m
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestMulMatRangeBitwisePerColumn(t *testing.T) {
	for name, a := range shadowMatrices(t) {
		n := a.N
		// Interior, boundary and window/chunk-straddling row ranges.
		ranges := [][2]int{{0, n}, {0, n / 3}, {n / 3, 2*n/3 + 5}, {n - 7, n}, {129, 517}}
		for b := 1; b <= 8; b++ {
			rng := rand.New(rand.NewSource(int64(100 + b)))
			x := make([]float64, n*b)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, n*b)
			xcol := make([]float64, n)
			ycol := make([]float64, n)
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				Fill(y, math.NaN())
				a.MulMatRange(x, y, b, lo, hi)
				for j := 0; j < b; j++ {
					for i := range xcol {
						xcol[i] = x[i*b+j]
					}
					Fill(ycol, math.NaN())
					a.MulVecRange(xcol, ycol, lo, hi)
					for i := lo; i < hi; i++ {
						if !bitsEqual(y[i*b+j], ycol[i]) {
							t.Fatalf("%s b=%d [%d,%d) col %d row %d: %v != %v",
								name, b, lo, hi, j, i, y[i*b+j], ycol[i])
						}
					}
				}
			}
		}
	}
}
