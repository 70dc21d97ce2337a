package sparse

import (
	"math/rand"
	"testing"
)

// The fused-vs-unfused microbenchmarks: each fused kernel against the
// exact composition it replaces, on a Poisson-like banded matrix sized so
// the vectors spill the L2 cache (where the single-pass structure pays).
// Run with -benchmem: the kernels themselves must never allocate.

const benchN = 1 << 16

func benchMatrix(n int) *CSR {
	// Pentadiagonal band: ~5 nnz/row like the 2D stencil analogues.
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, 4})
		for _, off := range []int{-2, -1, 1, 2} {
			if j := i + off; j >= 0 && j < n {
				tr = append(tr, Triplet{i, j, -1})
			}
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

func benchVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Kernel-path attribution: the same pentadiagonal SpMV through the three
// dispatch tiers (generic wide-index CSR, narrow-index CSR, diagonal
// shadow). benchMatrix qualifies for the DIA shadow, so the *ThenDots /
// *Fused benchmarks below measure the best path; these isolate each tier.
func BenchmarkSpMVGeneric(b *testing.B) {
	a := benchMatrix(benchN)
	g := &CSR{N: a.N, M: a.M, RowPtr: a.RowPtr, Cols: a.Cols, Vals: a.Vals} // no shadows
	x, y := benchVec(benchN, 1), make([]float64, benchN)
	b.SetBytes(int64(8 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MulVecRange(x, y, 0, benchN)
	}
}

func BenchmarkSpMVIndex32(b *testing.B) {
	a := benchMatrix(benchN)
	c := &CSR{N: a.N, M: a.M, RowPtr: a.RowPtr, Cols: a.Cols, Vals: a.Vals}
	c.cols32, c.rowPtr32 = a.cols32, a.rowPtr32 // narrow indices, no DIA
	x, y := benchVec(benchN, 1), make([]float64, benchN)
	b.SetBytes(int64(8 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulVecRange(x, y, 0, benchN)
	}
}

// grid5 builds the 5-point operator of an nx-wide, ny-deep grid (offsets
// ±1, ±nx, the ±1 entries missing at the grid edges and zero-padded in
// the shadow).
func grid5(nx, ny int) *CSR {
	n := nx * ny
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
	return NewCSRFromTriplets(n, n, tr)
}

// stencil27 builds the nx^3 27-point stencil with a DIA shadow — the
// qa8fm-analogue shape the serving bench solves.
func stencil27(nx int) *CSR {
	n := nx * nx * nx
	var tr []Triplet
	idx := func(i, j, k int) int { return (i*nx+j)*nx + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			for k := 0; k < nx; k++ {
				r := idx(i, j, k)
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || jj < 0 || kk < 0 || ii >= nx || jj >= nx || kk >= nx {
								continue
							}
							v := -1.0
							if di == 0 && dj == 0 && dk == 0 {
								v = 27.0
							}
							tr = append(tr, Triplet{Row: r, Col: idx(ii, jj, kk), Val: v})
						}
					}
				}
			}
		}
	}
	return NewCSRFromTriplets(n, n, tr)
}

// BenchmarkSpMVDIA times the three DIA entry points the way the engine
// calls them — page by page, 512 rows — on the pentadiagonal band and on
// the diagonal patterns of the benchmark's two DIA operators: grid5(128,
// 128) is matgen.Thermal2Analogue(16384)'s and stencil27(32) is
// matgen.Poisson3D27(32,32,32)'s (matgen imports this package, so its
// tests build the patterns themselves). SetBytes is the benchmark
// module's spmvBytes for a shadow without indices: 8 bytes per nonzero,
// one read of x and one write of y.
func BenchmarkSpMVDIA(b *testing.B) {
	const page = 512
	ops := []struct {
		name string
		a    *CSR
	}{
		{"penta65k", benchMatrix(benchN)},
		{"5pt128x128", grid5(128, 128)},
		{"27pt32x32x32", stencil27(32)},
	}
	for _, op := range ops {
		a := op.a
		if a.ShadowName() != "dia" {
			b.Fatalf("%s: shadow %s, want dia", op.name, a.ShadowName())
		}
		x, y := benchVec(a.N, 1), make([]float64, a.N)
		kernels := []struct {
			name string
			fn   func(lo, hi int)
		}{
			{"MulVecRange", func(lo, hi int) { a.MulVecRange(x, y, lo, hi) }},
			{"MulVecDotRange", func(lo, hi int) {
				xy, yy := a.MulVecDotRange(x, y, lo, hi)
				sinkF += xy + yy
			}},
			{"MulVecDotVecRange", func(lo, hi int) { sinkF += a.MulVecDotVecRange(x, y, x, lo, hi) }},
		}
		for _, k := range kernels {
			b.Run(op.name+"/"+k.name, func(b *testing.B) {
				forBodies(b, a.NNZ(), "ns/nonzero", func(b *testing.B) {
					b.SetBytes(int64(8*a.NNZ() + 16*a.N))
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < a.N; lo += page {
							k.fn(lo, min(lo+page, a.N))
						}
					}
				})
			})
		}
	}
}

// forBodies runs bench once on the Go bodies (body=go) and, where this
// build has them, once on the assembly bodies (body=simd), and reports
// the time per pass over units things (nonzeros, elements) as unit.
func forBodies(b *testing.B, units int, unit string, bench func(b *testing.B)) {
	for _, simd := range []bool{false, true} {
		name := "body=go"
		if simd {
			name = "body=simd"
		}
		b.Run(name, func(b *testing.B) {
			if simd && !useAVX2 {
				b.Skip("no AVX2 body in this build")
			}
			withBody(simd, func() { bench(b) })
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), unit)
		})
	}
}

func BenchmarkSpMVThenDots(b *testing.B) {
	a := benchMatrix(benchN)
	x, y := benchVec(benchN, 1), make([]float64, benchN)
	b.SetBytes(int64(8 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecRange(x, y, 0, benchN)
		sinkF = DotRange(x, y, 0, benchN)
		sinkF += DotRange(y, y, 0, benchN)
	}
}

func BenchmarkSpMVDotFused(b *testing.B) {
	a := benchMatrix(benchN)
	x, y := benchVec(benchN, 1), make([]float64, benchN)
	b.SetBytes(int64(8 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xy, yy := a.MulVecDotRange(x, y, 0, benchN)
		sinkF = xy + yy
	}
}

func BenchmarkAxpyThenDot(b *testing.B) {
	forBodies(b, benchN, "ns/element", func(b *testing.B) {
		x, y := benchVec(benchN, 1), benchVec(benchN, 2)
		b.SetBytes(int64(8 * benchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AxpyRange(1e-9, x, y, 0, benchN)
			sinkF = DotRange(y, y, 0, benchN)
		}
	})
}

func BenchmarkAxpyDotFused(b *testing.B) {
	forBodies(b, benchN, "ns/element", func(b *testing.B) {
		x, y := benchVec(benchN, 1), benchVec(benchN, 2)
		b.SetBytes(int64(8 * benchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF = AxpyDotRange(1e-9, x, y, 0, benchN)
		}
	})
}

func BenchmarkXpbyThenDots(b *testing.B) {
	forBodies(b, benchN, "ns/element", func(b *testing.B) {
		x, y, w := benchVec(benchN, 1), benchVec(benchN, 2), benchVec(benchN, 3)
		out := make([]float64, benchN)
		b.SetBytes(int64(8 * benchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			XpbyOutRange(x, -0.5, y, out, 0, benchN)
			sinkF = DotRange(out, w, 0, benchN)
			sinkF += DotRange(out, out, 0, benchN)
		}
	})
}

func BenchmarkXpbyDotNormFused(b *testing.B) {
	x, y, w := benchVec(benchN, 1), benchVec(benchN, 2), benchVec(benchN, 3)
	out := make([]float64, benchN)
	b.SetBytes(int64(8 * benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ow, oo := XpbyDotNormRange(x, -0.5, y, out, w, 0, benchN)
		sinkF = ow + oo
	}
}

func BenchmarkExcludingBlocks(b *testing.B) {
	a := benchMatrix(benchN)
	x := benchVec(benchN, 1)
	out := make([]float64, 512)
	// Five excluded pages, unsorted — the multi-DUE recovery shape.
	exclude := [][2]int{{4096, 4608}, {512, 1024}, {60000, 60512}, {2048, 2560}, {9000, 9512}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecRangeExcludingBlocks(x, out, 1024, 1536, exclude)
	}
}

var sinkF float64
