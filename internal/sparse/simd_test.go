package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// withBody runs f on the assembly bodies (simd) or on the Go bodies.
func withBody(simd bool, f func()) {
	old := useAVX2
	useAVX2 = simd
	defer func() { useAVX2 = old }()
	f()
}

// sameFloat is the oracle's equality: the same bits, or NaN on both
// sides (a NaN's payload depends on operand order, which the Go loops do
// not pin either).
func sameFloat(a, b float64) bool {
	return bitsEqual(a, b) || (a != a && b != b)
}

// simdValues fills v with normals and, when special, a sprinkling of
// NaN and ±Inf.
func simdValues(rng *rand.Rand, v []float64, special bool) {
	for i := range v {
		v[i] = rng.NormFloat64()
		if special {
			switch rng.Intn(12) {
			case 0:
				v[i] = math.NaN()
			case 1:
				v[i] = math.Inf(1)
			case 2:
				v[i] = math.Inf(-1)
			}
		}
	}
}

// TestSIMDBodiesMatchGo holds every assembly body to its Go body, bit for
// bit: the DIA group kernels in each mode and width 1–4 (every lane
// of the partials carried in and out), and the five vector kernels, at
// every length 0…67 (every tail of the four-row loop), on scattered
// offsets, with w a separate vector, x's own window
// or y itself, and on finite and on NaN/±Inf inputs. Some rows have only
// −0.0 products: a written row sum must start from +0.0, so they read
// +0.0, not −0.0.
func TestSIMDBodiesMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 body in this build")
	}
	rng := rand.New(rand.NewSource(1))
	const span = 40 // |offset| bound
	for _, special := range []bool{false, true} {
		for m := 0; m <= 67; m++ {
			for g := 1; g <= diaGroup; g++ {
				offs := rng.Perm(2*span + 1)[:g]
				for j := range offs {
					offs[j] -= span
				}
				xbuf := make([]float64, m+2*span)
				simdValues(rng, xbuf, special)
				var vs, xs [diaGroup][]float64
				for j, o := range offs {
					vs[j] = make([]float64, m)
					simdValues(rng, vs[j], special)
					xs[j] = xbuf[span+o : span+o+m]
				}
				for k := 0; k < m; k += 3 {
					for j := range g {
						vs[j][k] = math.Copysign(0, -xs[j][k]) // a −0.0 product
					}
				}
				y0, wsep := make([]float64, m), make([]float64, m)
				simdValues(rng, y0, special)
				simdValues(rng, wsep, special)
				// The lanes carried in from earlier blocks.
				acc0 := [2]lanes{
					{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
					{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				}

				for _, alias := range []string{"separate", "x", "y"} {
					name := fmt.Sprintf("special=%v/m=%d/g=%d/offs=%v/w=%s", special, m, g, offs, alias)
					var ys [2][]float64
					var accs [2][2]lanes
					for b, simd := range []bool{false, true} {
						ys[b] = append([]float64(nil), y0...)
						w := wsep
						switch alias {
						case "x":
							w = xbuf[span : span+m]
						case "y":
							w = ys[b]
						}
						withBody(simd, func() {
							diaWrite(ys[b], &vs, &xs, g)
							diaAccum(ys[b], &vs, &xs, g)
							accs[b] = acc0
							diaAccumDot(ys[b], w, &vs, &xs, g, &accs[b])
						})
					}
					for k := range ys[0] {
						if !sameFloat(ys[1][k], ys[0][k]) {
							t.Fatalf("%s: y[%d] simd %v (%#x), go %v (%#x)", name, k,
								ys[1][k], math.Float64bits(ys[1][k]), ys[0][k], math.Float64bits(ys[0][k]))
						}
					}
					for p, l := range accs[0] {
						s := accs[1][p]
						for j, v := range [4][2]float64{{s.l0, l.l0}, {s.l1, l.l1}, {s.l2, l.l2}, {s.l3, l.l3}} {
							if !sameFloat(v[0], v[1]) {
								t.Fatalf("%s: partial %d lane %d simd %v (%#x), go %v (%#x)", name, p, j,
									v[0], math.Float64bits(v[0]), v[1], math.Float64bits(v[1]))
							}
						}
					}
				}
				// The write body on its own: its rows of −0.0 products are
				// not resumed by the accumulating bodies afterwards.
				var wr [2][]float64
				for b, simd := range []bool{false, true} {
					wr[b] = make([]float64, m)
					withBody(simd, func() { diaWrite(wr[b], &vs, &xs, g) })
				}
				for k := range wr[0] {
					if !sameFloat(wr[1][k], wr[0][k]) {
						t.Fatalf("special=%v/m=%d/g=%d write: y[%d] simd %#x, go %#x", special, m, g, k,
							math.Float64bits(wr[1][k]), math.Float64bits(wr[0][k]))
					}
					if k%3 == 0 && !special && math.Float64bits(wr[0][k]) != 0 {
						t.Fatalf("m=%d/g=%d: a row of −0.0 products wrote %#x, want +0.0", m, g, math.Float64bits(wr[0][k]))
					}
				}
			}
			checkVectorBodies(t, rng, m, special)
		}
	}
}

// checkVectorBodies runs AxpyRange, XpbyRange, XpbyOutRange,
// AxpyDotRange and DotRange on both bodies over [lo, lo+m) of vectors with a
// sentinel on either side, with out (or y) separate from or aliasing x.
func checkVectorBodies(t *testing.T, rng *rand.Rand, m int, special bool) {
	t.Helper()
	const pad = 3
	n := m + 2*pad
	x0, y0, out0 := make([]float64, n), make([]float64, n), make([]float64, n)
	simdValues(rng, x0, special)
	simdValues(rng, y0, special)
	simdValues(rng, out0, special)
	alpha := rng.NormFloat64()
	lo, hi := pad, pad+m
	kernels := []struct {
		name string
		run  func(x, y, out []float64) float64
	}{
		{"AxpyRange", func(x, y, _ []float64) float64 { AxpyRange(alpha, x, y, lo, hi); return 0 }},
		{"XpbyRange", func(x, y, _ []float64) float64 { XpbyRange(x, alpha, y, lo, hi); return 0 }},
		{"XpbyOutRange", func(x, y, out []float64) float64 { XpbyOutRange(x, alpha, y, out, lo, hi); return 0 }},
		{"AxpyDotRange", func(x, y, _ []float64) float64 { return AxpyDotRange(alpha, x, y, lo, hi) }},
		{"DotRange", func(x, y, _ []float64) float64 { return DotRange(x, y, lo, hi) }},
	}
	for _, k := range kernels {
		for _, alias := range []string{"separate", "out=x", "out=y", "y=x"} {
			var got [2][3][]float64
			var red [2]float64
			for b, simd := range []bool{false, true} {
				x, y, out := append([]float64(nil), x0...), append([]float64(nil), y0...), append([]float64(nil), out0...)
				switch alias {
				case "out=x":
					out = x
				case "out=y":
					out = y
				case "y=x":
					y = x
				}
				withBody(simd, func() { red[b] = k.run(x, y, out) })
				got[b] = [3][]float64{x, y, out}
			}
			for v := range got[0] {
				for i := range got[0][v] {
					if !sameFloat(got[1][v][i], got[0][v][i]) {
						t.Fatalf("%s special=%v m=%d %s: vector %d [%d] simd %v, go %v", k.name, special, m, alias, v, i, got[1][v][i], got[0][v][i])
					}
				}
			}
			if !sameFloat(red[1], red[0]) {
				t.Fatalf("%s special=%v m=%d %s: simd %v, go %v", k.name, special, m, alias, red[1], red[0])
			}
		}
	}
}

// TestSIMDBodiesDoNotAllocate: the assembly bodies, through the kernels
// that dispatch to them, allocate nothing.
func TestSIMDBodiesDoNotAllocate(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 body in this build")
	}
	const m = 1030
	x, y, w := benchVec(m+8, 1), make([]float64, m), benchVec(m, 2)
	var vs, xs [diaGroup][]float64
	for j := range vs {
		vs[j], xs[j] = benchVec(m, int64(3+j)), x[2*j:2*j+m]
	}
	var acc [2]lanes
	for g := 1; g <= diaGroup; g++ {
		allocs := testing.AllocsPerRun(20, func() {
			diaWrite(y, &vs, &xs, g)
			diaAccum(y, &vs, &xs, g)
			diaAccumDot(y, w, &vs, &xs, g, &acc)
		})
		if allocs != 0 {
			t.Fatalf("DIA bodies, width %d: %v allocations per call", g, allocs)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		AxpyRange(0.5, w, y, 0, m)
		XpbyRange(w, 0.5, y, 0, m)
		XpbyOutRange(w, 0.5, y, x, 0, m)
		sinkF = AxpyDotRange(0.5, w, y, 0, m)
		sinkF = DotRange(w, y, 0, m)
	})
	if allocs != 0 {
		t.Fatalf("vector bodies: %v allocations per call", allocs)
	}
}

// TestAssemblyNeverFuses: no assembly file of this package contains a
// fused multiply-add, which would round once where the Go bodies round
// twice (ROADMAP item 8).
func TestAssemblyNeverFuses(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files found")
	}
	fused := regexp.MustCompile(`\bV?F(N?MADD|N?MSUB)`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if fused.MatchString(strings.ToUpper(code)) {
				t.Errorf("%s:%d: fused multiply-add: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}
