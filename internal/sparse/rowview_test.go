package sparse_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// tridiag is the n×n symmetric tridiagonal [−1 4 −1] with entry (r, r+1)
// and its mirror set to v.
func tridiag(n, r int, v float64) *sparse.CSR {
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i+1 < n {
			w := -1.0
			if i == r {
				w = v
			}
			tr = append(tr, sparse.Triplet{Row: i, Col: i + 1, Val: w}, sparse.Triplet{Row: i + 1, Col: i, Val: w})
		}
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// TestRowViewMatchesArrays runs every row reader on an operator as
// assembled and on its twin with arrays kept, and requires bitwise equal
// answers: the rows an operator held as its diagonals gathers are the
// rows its arrays held, in the same order. An operator that stores +0.0
// keeps its arrays (a zero slot could not tell it from "absent"); one
// that stores −0.0 is held as its diagonals and the entry survives.
func TestRowViewMatchesArrays(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name    string
		a       *sparse.CSR
		dropped bool
	}{
		{"Poisson3D27 8^3", matgen.Poisson3D27(8, 8, 8), true},
		{"thermal2 4096", matgen.Thermal2Analogue(4096), true},
		{"stores +0.0", tridiag(700, 300, 0), false},
		{"stores -0.0", tridiag(700, 300, negZero), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := c.a
			if a.ShadowName() != "dia" || (a.RowPtr == nil) != c.dropped {
				t.Fatalf("shadow %s, arrays dropped %v, want dia, %v", a.ShadowName(), a.RowPtr == nil, c.dropped)
			}
			ref := sparse.WithArrays(a)
			if ref.ShadowName() != "csr32" || ref.RowPtr == nil || a.NNZ() != ref.NNZ() || a.NNZ() != len(ref.Vals) {
				t.Fatalf("twin: shadow %s, nnz %d against %d", ref.ShadowName(), ref.NNZ(), a.NNZ())
			}
			checkRowReaders(t, a, ref)
		})
	}
	a := tridiag(700, 300, negZero)
	if v := a.At(300, 301); math.Float64bits(v) != math.Float64bits(negZero) || a.RowNNZ(300) != 3 {
		t.Fatalf("-0.0 entry read back as %v in a row of %d", v, a.RowNNZ(300))
	}
}

func checkRowReaders(t *testing.T, a, ref *sparse.CSR) {
	t.Helper()
	n := a.N
	rng := rand.New(rand.NewSource(int64(n)))
	x := make([]float64, 4*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
			t.Fatalf("%s: operator and twin differ", what)
		}
	}
	var ba, br sparse.RowBuf
	for i := 0; i < n; i++ {
		ca, va := a.Row(i, &ba)
		cr, vr := ref.Row(i, &br)
		same(fmt.Sprintf("Row(%d)", i), []any{ca, va}, []any{cr, vr})
		same("RowNNZ", a.RowNNZ(i), ref.RowNNZ(i))
		same("OffBlockRowAbsSum", a.OffBlockRowAbsSum(i, i/64*64, i/64*64+64), ref.OffBlockRowAbsSum(i, i/64*64, i/64*64+64))
		for _, j := range []int{i - 65, i - 1, i, i + 1, i + 64, rng.Intn(n)} {
			if j >= 0 && j < n {
				same("At", a.At(i, j), ref.At(i, j))
			}
		}
	}
	for _, r := range [][2]int{{0, n}, {0, 64}, {n / 3, n/3 + 100}, {n - 70, n}} {
		lo, hi := r[0], r[1]
		ya, yr := make([]float64, hi-lo), make([]float64, hi-lo)
		a.MulVecRangeExcludingCols(x, ya, lo, hi, lo, hi)
		ref.MulVecRangeExcludingCols(x, yr, lo, hi, lo, hi)
		same("MulVecRangeExcludingCols", ya, yr)
		a.MulVecRangeWithinCols(x, ya, lo, hi, lo, hi)
		ref.MulVecRangeWithinCols(x, yr, lo, hi, lo, hi)
		same("MulVecRangeWithinCols", ya, yr)
		ex := [][2]int{{lo + 5, lo + 40}, {hi - 20, hi + 30}, {0, 10}}
		a.MulVecRangeExcludingBlocks(x, ya, lo, hi, ex)
		ref.MulVecRangeExcludingBlocks(x, yr, lo, hi, ex)
		same("MulVecRangeExcludingBlocks", ya, yr)
		ya, yr = make([]float64, 4*n), make([]float64, 4*n)
		a.MulMatRange(x, ya, 4, lo, hi)
		ref.MulMatRange(x, yr, 4, lo, hi)
		same("MulMatRange", ya, yr)
		same("DiagBlock", a.DiagBlock(lo, hi).Data, ref.DiagBlock(lo, hi).Data)
	}
	same("Diag", a.Diag(), ref.Diag())
	same("IsSymmetric", a.IsSymmetric(0), ref.IsSymmetric(0))
	same("Validate", a.Validate(), ref.Validate())
	ta, tr := sparse.WithArrays(a.Transpose()), sparse.WithArrays(ref.Transpose())
	same("Transpose", []any{ta.RowPtr, ta.Cols, ta.Vals}, []any{tr.RowPtr, tr.Cols, tr.Vals})

	// spanRows, through the block factors: one block and a coupled pair.
	layout := sparse.BlockLayout{N: n, BlockSize: 64}
	ka, kr := sparse.NewBlockSolverCache(a, layout, true), sparse.NewBlockSolverCache(ref, layout, true)
	for _, blocks := range [][]int{{1}, {0, 2}} {
		rhsA, rhsR := append([]float64(nil), x[:64*len(blocks)]...), append([]float64(nil), x[:64*len(blocks)]...)
		_, errA := ka.SolveCoupledBlocks(blocks, rhsA)
		_, errR := kr.SolveCoupledBlocks(blocks, rhsR)
		if errA != nil || errR != nil {
			t.Fatalf("blocks %v: %v, %v", blocks, errA, errR)
		}
		same(fmt.Sprintf("SolveCoupledBlocks%v", blocks), rhsA, rhsR)
	}

	if !reflect.DeepEqual(engine.PageConnectivity(a, layout), engine.PageConnectivity(ref, layout)) {
		t.Fatal("PageConnectivity: operator and twin differ")
	}
	for _, sym := range []bool{false, true} {
		var wa, wr bytes.Buffer
		if err := matgen.WriteMatrixMarket(&wa, a, sym); err != nil {
			t.Fatal(err)
		}
		if err := matgen.WriteMatrixMarket(&wr, ref, sym); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wr.Bytes()) {
			t.Fatalf("WriteMatrixMarket(symmetric=%v): operator and twin differ", sym)
		}
	}

	// The recovery walks allocate nothing on either form.
	y := make([]float64, 4*n)
	for name, f := range map[string]func(m *sparse.CSR){
		"MulVecRangeExcludingCols":   func(m *sparse.CSR) { m.MulVecRangeExcludingCols(x, y, 64, 128, 64, 128) },
		"MulVecRangeWithinCols":      func(m *sparse.CSR) { m.MulVecRangeWithinCols(x, y, 64, 128, 64, 128) },
		"MulVecRangeExcludingBlocks": func(m *sparse.CSR) { m.MulVecRangeExcludingBlocks(x, y, 64, 128, [][2]int{{64, 128}}) },
		"OffBlockRowAbsSum":          func(m *sparse.CSR) { m.OffBlockRowAbsSum(100, 64, 128) },
		"At":                         func(m *sparse.CSR) { m.At(100, 101) },
		"MulMatRange":                func(m *sparse.CSR) { m.MulMatRange(x, y, 4, 64, 128) },
	} {
		for _, m := range []*sparse.CSR{a, ref} {
			if allocs := testing.AllocsPerRun(10, func() { f(m) }); allocs != 0 {
				t.Errorf("%s (arrays %v): %v allocations per call", name, m.RowPtr != nil, allocs)
			}
		}
	}
}

// TestExcludingBlocksDoesNotAllocate: the §2.4 walk over several excluded
// pages — every coupled repair's and the Lossy step's — sorts and merges
// its ranges in place, allocating nothing with two or three of them.
func TestExcludingBlocksDoesNotAllocate(t *testing.T) {
	a := matgen.Thermal2Analogue(4096)
	x, y := make([]float64, a.N), make([]float64, 512)
	for _, ex := range [][][2]int{
		{{1536, 2048}, {512, 1024}},
		{{2560, 3072}, {512, 1024}, {1536, 2048}},
	} {
		if n := testing.AllocsPerRun(20, func() { a.MulVecRangeExcludingBlocks(x, y, 1024, 1536, ex) }); n != 0 {
			t.Errorf("%d excluded ranges: %v allocations per call", len(ex), n)
		}
	}
}

// bitsOf maps every float64 inside v to its bits, so that a comparison
// tells −0.0 from +0.0 and compares NaNs by payload.
func bitsOf(v any) any {
	switch v := v.(type) {
	case float64:
		return math.Float64bits(v)
	case []float64:
		b := make([]uint64, len(v))
		for i, f := range v {
			b[i] = math.Float64bits(f)
		}
		return b
	case []any:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = bitsOf(e)
		}
		return out
	}
	return v
}
