package sparse_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// symBand builds an n×n operator on the diagonals 0 and ±offs with
// random values, exactly symmetric: A[i][j] and A[j][i] are one draw.
func symBand(n int, offs []int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4 + rng.Float64()})
		for _, o := range offs {
			if j := i + o; j < n {
				v := rng.NormFloat64()
				tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: v}, sparse.Triplet{Row: j, Col: i, Val: v})
			}
		}
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// with returns a copy of a whose entry (i, j) is v, or is not stored when
// v is NaN.
func with(a *sparse.CSR, i, j int, v float64) *sparse.CSR {
	tr := []sparse.Triplet{}
	var buf sparse.RowBuf
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r, &buf)
		for p, c32 := range cols {
			if c := int(c32); r != i || c != j {
				tr = append(tr, sparse.Triplet{Row: r, Col: c, Val: vals[p]})
			}
		}
	}
	if !math.IsNaN(v) {
		tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: v})
	}
	return sparse.NewCSRFromTriplets(a.N, a.M, tr)
}

// TestMirroredDiagonalsShareAndMatchCSR: the DIA shadow holds a mirrored
// pair of diagonals in one array exactly when every slot of −k equals its
// mirror in +k bit for bit, and whatever it shares, y and both partials
// of all three entry points stay bitwise those of the CSR kernels, with
// no allocation.
func TestMirroredDiagonalsShareAndMatchCSR(t *testing.T) {
	const n, k, r = 3000, 37, 1500 // the edits below touch (r, r−k) and (r−k, r)
	band := []int{1, 2, k, 300}
	sym := symBand(n, band, 5)
	ulp := func(i, j int) *sparse.CSR { return with(sym, i, j, math.Nextafter(sym.At(i, j), math.Inf(1))) }
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name     string
		a        *sparse.CSR
		backings int
	}{
		{"Poisson3D27 16^3", matgen.Poisson3D27(16, 16, 16), 14},
		{"Poisson3D27 32^3", matgen.Poisson3D27(32, 32, 32), 14},
		{"thermal2 4096", matgen.Thermal2Analogue(4096), 3},
		{"thermal2 16384", matgen.Thermal2Analogue(16384), 3},
		{"symmetric band", sym, 5},
		{"one ulp off below", ulp(r, r-k), 6},
		{"one ulp off above", ulp(r-k, r), 6},
		{"one ulp off in the first row of -k", ulp(k, 0), 6},
		{"one ulp off in the last row", ulp(n-1, n-1-k), 6},
		{"-0.0 against +0.0", with(with(sym, r, r-k, negZero), r-k, r, 0), 6},
		{"-0.0 against no entry", with(with(sym, r, r-k, negZero), r-k, r, math.NaN()), 6},
		{"no entry against -0.0", with(with(sym, r, r-k, math.NaN()), r-k, r, negZero), 6},
		{"-0.0 and +0.0 crossed over two slots", with(with(with(with(sym, r, r-k, negZero), r-k, r, 0), r+1, r+1-k, 0), r+1-k, r+1, negZero), 6},
		{"+0.0 against no entry", with(with(sym, r, r-k, 0), r-k, r, math.NaN()), 5},
		{"symmetric pattern, unsymmetric values", unsymValues(n, band), 9},
		{"unsymmetric pattern", unsymPattern(n), 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := c.a
			if a.ShadowName() != "dia" {
				t.Fatalf("shadow %s, want dia", a.ShadowName())
			}
			if got := sparse.DIABackings(a); got != c.backings {
				t.Errorf("%d diagonal arrays, want %d", got, c.backings)
			}
			checkDIAMatchesCSR(t, a)
		})
	}
}

// unsymValues is symBand's pattern with every entry its own draw.
func unsymValues(n int, offs []int) *sparse.CSR {
	a := symBand(n, offs, 5)
	a.DisableShadow("dia") // the arrays to redraw
	rng := rand.New(rand.NewSource(11))
	for p := range a.Vals {
		a.Vals[p] = rng.NormFloat64()
	}
	a.BuildShadows()
	return a
}

// unsymPattern has no diagonal whose mirror is stored.
func unsymPattern(n int) *sparse.CSR {
	rng := rand.New(rand.NewSource(9))
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		for _, o := range []int{-3, -1, 0, 2, 5} {
			if j := i + o; j >= 0 && j < n {
				tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// checkDIAMatchesCSR runs a's three entry points and the CSR kernels of a
// DIA-free clone on page-sized, block-straddling and whole ranges, and
// requires every y and partial bitwise equal, every row outside the range
// untouched, and no allocation.
func checkDIAMatchesCSR(t *testing.T, a *sparse.CSR) {
	t.Helper()
	n := a.N
	g := a.Clone()
	g.DisableShadow("dia")
	if g.ShadowName() != "csr32" {
		t.Fatalf("reference shadow %s, want csr32", g.ShadowName())
	}
	rng := rand.New(rand.NewSource(int64(n)))
	x, w := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], w[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	got, want := make([]float64, n), make([]float64, n)
	same := func(what string, lo, hi int) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("[%d,%d) %s: y[%d] dia=%v csr=%v", lo, hi, what, i, got[i], want[i])
			}
		}
	}
	for _, r := range [][2]int{{0, n}, {0, 512}, {512, 1024}, {1000, 1100}, {n - 512, n}, {n - 1, n}} {
		lo, hi := r[0], min(r[1], n)
		sparse.Fill(got, math.NaN())
		sparse.Fill(want, math.NaN())
		a.MulVecRange(x, got, lo, hi)
		g.MulVecRange(x, want, lo, hi)
		same("MulVecRange", lo, hi)
		gxy, gyy := a.MulVecDotRange(x, got, lo, hi)
		wxy, wyy := g.MulVecDotRange(x, want, lo, hi)
		same("MulVecDotRange", lo, hi)
		gwy := a.MulVecDotVecRange(x, got, w, lo, hi)
		wwy := g.MulVecDotVecRange(x, want, w, lo, hi)
		same("MulVecDotVecRange", lo, hi)
		for _, p := range [][2]float64{{gxy, wxy}, {gyy, wyy}, {gwy, wwy}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("[%d,%d) partials: dia %v csr %v", lo, hi, p[0], p[1])
			}
		}
	}
	for _, m := range []*sparse.CSR{a, g} {
		kernels := map[string]func(){
			"MulVecRange":       func() { m.MulVecRange(x, got, 17, n-23) },
			"MulVecDotRange":    func() { m.MulVecDotRange(x, got, 17, n-23) },
			"MulVecDotVecRange": func() { m.MulVecDotVecRange(x, got, w, 17, n-23) },
		}
		for name, f := range kernels {
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%s %s: %v allocations per call", m.ShadowName(), name, allocs)
			}
		}
	}
}

// TestSizeLimitNamed: a size past the int32 index limit is refused by
// name, before anything of that size is allocated.
func TestSizeLimitNamed(t *testing.T) {
	for _, s := range [][3]int{{sparse.MaxIndex + 1, 4, 4}, {4, sparse.MaxIndex + 1, 4}, {4, 4, sparse.MaxIndex + 1}} {
		if err := sparse.CheckSize(s[0], s[1], s[2]); !errors.Is(err, sparse.ErrTooLarge) {
			t.Errorf("CheckSize%v = %v, want ErrTooLarge", s, err)
		}
	}
	if err := sparse.CheckSize(sparse.MaxIndex, sparse.MaxIndex, sparse.MaxIndex); err != nil {
		t.Errorf("CheckSize at the limit: %v", err)
	}
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, fmt.Sprint(sparse.MaxIndex)) {
			t.Errorf("NewCSRFromTriplets past the limit panicked with %q, want the limit named", r)
		}
	}()
	sparse.NewCSRFromTriplets(sparse.MaxIndex+1, 1, nil)
}
