package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randShortRowCSR builds a square matrix with 3..12 random columns per
// row (diagonal always present): short-rowed and diagonally unstructured,
// the family the SELL-C-σ shadow exists for.
func randShortRowCSR(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4 + rng.Float64()})
		extra := 2 + rng.Intn(10)
		for k := 0; k < extra; k++ {
			j := rng.Intn(n)
			tr = append(tr, Triplet{i, j, rng.NormFloat64()})
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSELLSelection(t *testing.T) {
	if got := randShortRowCSR(1000, 1).ShadowName(); got != "sell" {
		t.Fatalf("random short-row matrix: shadow %q, want sell", got)
	}
	// Stencils keep the DIA shadow.
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
	if got := NewCSRFromTriplets(nx*nx, nx*nx, st).ShadowName(); got != "dia" {
		t.Fatalf("stencil: shadow %q, want dia", got)
	}
	// Matrices below the size floor stay on the narrow-index CSR path.
	if got := randShortRowCSR(100, 2).ShadowName(); got == "sell" {
		t.Fatalf("small matrix selected sell")
	}
	// Long rows (avg > sellMaxAvgRow) keep the row-major kernel.
	rng := rand.New(rand.NewSource(3))
	var tr []Triplet
	n := 600
	for i := 0; i < n; i++ {
		for k := 0; k < 40; k++ {
			tr = append(tr, Triplet{i, rng.Intn(n), 1 + rng.Float64()})
		}
	}
	if got := NewCSRFromTriplets(n, n, tr).ShadowName(); got == "sell" {
		t.Fatalf("long-row matrix selected sell")
	}
}

// profileCSR builds a square matrix whose row i holds its diagonal and
// rowLen(i)-1 distinct random off-diagonal columns: a row-length profile
// the random matrix above rarely produces.
func profileCSR(n int, seed int64, rowLen func(i int) int) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4 + rng.Float64()})
		seen := map[int]bool{i: true}
		for len(seen) < rowLen(i) {
			if j := rng.Intn(n); !seen[j] {
				seen[j] = true
				tr = append(tr, Triplet{i, j, rng.NormFloat64()})
			}
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

// TestSELLMatchesCSRBitwise pins the three SELL entry points bitwise
// against the CSR kernels on full, page-aligned and misaligned ranges,
// across sizes that exercise partial windows and partial chunks, and
// across row-length profiles that drive the chunk kernel's paths one at a
// time: no ragged tail at all, one lane alone in a deep tail while the
// others drop out one by one, and a last chunk with lanes that have no
// row (n ≡ 1…7 mod 8).
func TestSELLMatchesCSRBitwise(t *testing.T) {
	for _, n := range []int{512, 513, 1000, 1289} {
		for seed := int64(0); seed < 3; seed++ {
			checkSELLBitwise(t, fmt.Sprintf("random n=%d seed=%d", n, seed), randShortRowCSR(n, 100+seed), 200+seed)
		}
	}
	for seed := int64(0); seed < 2; seed++ {
		checkSELLBitwise(t, fmt.Sprintf("uniform seed=%d", seed),
			profileCSR(1000, 400+seed, func(int) int { return 7 }), 1200+seed)
		// Per window, one 40-entry row leads a chunk whose other lanes
		// stop 3 apart, so lanes leave the tail one by one.
		checkSELLBitwise(t, fmt.Sprintf("long row per window seed=%d", seed),
			profileCSR(1289, 600+seed, func(i int) int {
				if p := i%sellSigma - 100; p >= 0 && p < sellC {
					return 40 - 3*p
				}
				return 3 + (i*7)%10
			}), 1400+seed)
	}
	for r := 1; r < sellC; r++ {
		n := 2*sellSigma + r
		checkSELLBitwise(t, fmt.Sprintf("n=%d", n), randShortRowCSR(n, 800+int64(r)), 1600+int64(r))
	}
}

// checkSELLBitwise compares each of a's three SELL entry points with the
// CSR kernels on x = randVec(n, seed) and w = randVec(n, seed+100). Every
// entry point writes its own NaN-filled y, checked as soon as it returns:
// rows in [lo, hi) equal to the CSR kernels' bitwise, every other row still NaN
// (a row written outside the range would be another task's row under the
// pool).
func checkSELLBitwise(t *testing.T, name string, a *CSR, seed int64) {
	t.Helper()
	if a.ShadowName() != "sell" {
		t.Fatalf("%s: shadow %q", name, a.ShadowName())
	}
	n := a.N
	ref32 := a.Clone()
	ref32.DisableShadow("sell")
	refs := []*CSR{ref32}
	x := randVec(n, seed)
	w := randVec(n, seed+100)
	ranges := [][2]int{{0, n}, {0, 64}, {64, 128}, {17, n - 23}, {n - 1, n}, {255, 257}}
	for _, rr := range ranges {
		lo, hi := rr[0], min(rr[1], n)
		if lo >= hi {
			continue
		}
		wants := make([][]float64, len(refs))
		for r, ref := range refs {
			wants[r] = make([]float64, n)
			ref.MulVecRange(x, wants[r], lo, hi)
		}
		check := func(entry string, y []float64) {
			t.Helper()
			for i, v := range y {
				if i < lo || i >= hi {
					if !math.IsNaN(v) {
						t.Fatalf("%s [%d,%d) %s: row %d outside the range written (%v)",
							name, lo, hi, entry, i, v)
					}
					continue
				}
				for r, ref := range refs {
					if v != wants[r][i] {
						t.Fatalf("%s [%d,%d) %s: row %d sell=%v %s=%v",
							name, lo, hi, entry, i, v, ref.ShadowName(), wants[r][i])
					}
				}
			}
		}
		nanVec := func() []float64 {
			y := make([]float64, n)
			for i := range y {
				y[i] = math.NaN()
			}
			return y
		}

		y := nanVec()
		a.MulVecRange(x, y, lo, hi)
		check("MulVecRange", y)

		y = nanVec()
		gxy, gyy := a.MulVecDotRange(x, y, lo, hi)
		check("MulVecDotRange", y)

		y = nanVec()
		gwy := a.MulVecDotVecRange(x, y, w, lo, hi)
		check("MulVecDotVecRange", y)

		for _, ref := range refs {
			want := make([]float64, n)
			if wxy, wyy := ref.MulVecDotRange(x, want, lo, hi); gxy != wxy || gyy != wyy {
				t.Fatalf("%s [%d,%d): fused dots (%v,%v) vs %s (%v,%v)",
					name, lo, hi, gxy, gyy, ref.ShadowName(), wxy, wyy)
			}
			if wwy := ref.MulVecDotVecRange(x, want, w, lo, hi); gwy != wwy {
				t.Fatalf("%s [%d,%d): fused vec dot %v vs %s %v",
					name, lo, hi, gwy, ref.ShadowName(), wwy)
			}
		}
	}
}

// TestSELLDoesNotAllocate: the three SELL entry points run on the solve's
// hot path every iteration.
func TestSELLDoesNotAllocate(t *testing.T) {
	a := randShortRowCSR(1000, 9)
	if a.ShadowName() != "sell" {
		t.Fatalf("shadow %q", a.ShadowName())
	}
	x, w, y := randVec(1000, 10), randVec(1000, 11), make([]float64, 1000)
	for name, f := range map[string]func(){
		"MulVecRange":       func() { a.MulVecRange(x, y, 17, 977) },
		"MulVecDotRange":    func() { a.MulVecDotRange(x, y, 17, 977) },
		"MulVecDotVecRange": func() { a.MulVecDotVecRange(x, y, w, 17, 977) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocs per call", name, n)
		}
	}
}

// TestSELLRecoveryPathsUnperturbed: the exclusion kernels recovery uses
// (MulVecRangeExcludingCols/Blocks) read the CSR arrays, which the SELL
// shadow must leave untouched — a recovery-style exclusion sweep on the
// shadowed matrix is bitwise the sweep on a shadow-free clone, and the
// shadowed SpMV around the healed region agrees too.
func TestSELLRecoveryPathsUnperturbed(t *testing.T) {
	n := 1000
	a := randShortRowCSR(n, 7)
	if a.ShadowName() != "sell" {
		t.Fatalf("shadow %q", a.ShadowName())
	}
	bare := a.Clone()
	bare.DisableShadow("sell")
	x := randVec(n, 8)
	lo, hi := 128, 192 // the "failed page" rows
	got := make([]float64, hi-lo)
	want := make([]float64, hi-lo)
	a.MulVecRangeExcludingCols(x, got, lo, hi, 256, 320)
	bare.MulVecRangeExcludingCols(x, want, lo, hi, 256, 320)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ExcludingCols row %d: %v vs %v", lo+i, got[i], want[i])
		}
	}
	ex := [][2]int{{256, 320}, {600, 664}, {64, 128}}
	a.MulVecRangeExcludingBlocks(x, got, lo, hi, ex)
	bare.MulVecRangeExcludingBlocks(x, want, lo, hi, ex)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ExcludingBlocks row %d: %v vs %v", lo+i, got[i], want[i])
		}
	}
	// Post-heal SpMV over the failed page's rows.
	gy, wy := make([]float64, n), make([]float64, n)
	a.MulVecRange(x, gy, lo, hi)
	bare.MulVecRange(x, wy, lo, hi)
	for i := lo; i < hi; i++ {
		if gy[i] != wy[i] {
			t.Fatalf("post-heal row %d: %v vs %v", i, gy[i], wy[i])
		}
	}
}
