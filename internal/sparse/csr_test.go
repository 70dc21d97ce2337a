package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// smallTestMatrix builds the 4x4 SPD matrix
//
//	[ 4 -1  0  0]
//	[-1  4 -1  0]
//	[ 0 -1  4 -1]
//	[ 0  0 -1  4]
func smallTestMatrix() *CSR {
	var tr []Triplet
	for i := 0; i < 4; i++ {
		tr = append(tr, Triplet{i, i, 4})
		if i > 0 {
			tr = append(tr, Triplet{i, i - 1, -1})
		}
		if i < 3 {
			tr = append(tr, Triplet{i, i + 1, -1})
		}
	}
	return NewCSRFromTriplets(4, 4, tr)
}

// randomSparse builds a random n×n strictly diagonally dominant matrix.
func randomSparse(n int, nnzPerRow int, rng *rand.Rand) *CSR {
	var tr []Triplet
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			tr = append(tr, Triplet{i, j, v})
			rowSum += math.Abs(v)
		}
		tr = append(tr, Triplet{i, i, rowSum + 1 + rng.Float64()})
	}
	return NewCSRFromTriplets(n, n, tr)
}

func TestCSRAssembly(t *testing.T) {
	a := smallTestMatrix()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 10 {
		t.Fatalf("NNZ = %d, want 10", a.NNZ())
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != -1 || a.At(0, 3) != 0 {
		t.Fatal("At returned wrong values")
	}
}

func TestCSRDuplicateTripletsSummed(t *testing.T) {
	a := NewCSRFromTriplets(2, 2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}})
	if a.At(0, 0) != 3 {
		t.Fatalf("duplicate sum = %v, want 3", a.At(0, 0))
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
}

// TestCSRDuplicatesSummedInInputOrder: duplicates are summed left to
// right in the order they were given, whatever order assembly visits the
// rest in. 1e16 + 1 rounds back to 1e16, so both cells below are 0 in
// input order, where another order of the same three gives 1: (0,1)
// against any order that pairs 1e16 with -1e16 first, (1,1) against the
// reverse.
func TestCSRDuplicatesSummedInInputOrder(t *testing.T) {
	a := NewCSRFromTriplets(2, 3, []Triplet{
		{1, 2, 7}, {0, 1, 1e16}, {1, 1, 1}, {1, 0, 2}, {0, 1, 1}, {1, 1, 1e16},
		{0, 0, 3}, {0, 1, -1e16}, {1, 1, -1e16},
	})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 0 || a.At(1, 1) != 0 {
		t.Fatalf("(1e16 + 1) - 1e16 and (1 + 1e16) - 1e16 assembled to %v and %v, want 0", a.At(0, 1), a.At(1, 1))
	}
	if a.NNZ() != 5 || a.At(0, 0) != 3 || a.At(1, 0) != 2 || a.At(1, 2) != 7 {
		t.Fatalf("assembled %v %v %v", a.RowPtr, a.Cols, a.Vals)
	}

	// The same through the long-row sort: 300 columns given descending,
	// the three order-sensitive entries among them.
	var tr []Triplet
	for c := 299; c >= 0; c-- {
		if c == 150 {
			tr = append(tr, Triplet{1, c, 1}, Triplet{1, c, 1e16}, Triplet{1, c, -1e16})
			continue
		}
		tr = append(tr, Triplet{1, c, float64(c)})
	}
	a = NewCSRFromTriplets(3, 300, tr)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.RowNNZ(0) != 0 || a.RowNNZ(1) != 300 || a.RowNNZ(2) != 0 {
		t.Fatalf("row lengths %v", a.RowPtr)
	}
	for c := 0; c < 300; c++ {
		if want := float64(c); c != 150 && a.At(1, c) != want || c == 150 && a.At(1, c) != 0 {
			t.Fatalf("long row column %d: %v", c, a.At(1, c))
		}
	}
}

// BenchmarkNewCSRFromTriplets assembles the 27-point stencil on a 32³
// grid (0.83 M triplets, cg-stream's operator) from its generator-order
// triplets, shadows included.
func BenchmarkNewCSRFromTriplets(b *testing.B) {
	const g = 32
	var tr []Triplet
	for i := 0; i < g*g*g; i++ {
		x, y, z := i/(g*g), i/g%g, i%g
		tr = append(tr, Triplet{i, i, 26})
		for d := 0; d < 27; d++ {
			xx, yy, zz := x+d/9-1, y+d/3%3-1, z+d%3-1
			if d != 13 && xx >= 0 && xx < g && yy >= 0 && yy < g && zz >= 0 && zz < g {
				tr = append(tr, Triplet{i, (xx*g+yy)*g + zz, -1})
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCSRFromTriplets(g*g*g, g*g*g, tr)
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSRFromTriplets(2, 2, []Triplet{{2, 0, 1}})
}

func TestMulVec(t *testing.T) {
	a := smallTestMatrix()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(x, y)
	want := []float64{4 - 2, -1 + 8 - 3, -2 + 12 - 4, -3 + 16}
	for i := range y {
		if !almostEqual(y[i], want[i], 1e-15) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSparse(200, 6, rng)
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := make([]float64, 200)
	a.MulVec(x, full)
	part := make([]float64, 200)
	for lo := 0; lo < 200; lo += 37 {
		hi := lo + 37
		if hi > 200 {
			hi = 200
		}
		a.MulVecRange(x, part, lo, hi)
	}
	for i := range full {
		if !almostEqual(full[i], part[i], 1e-14) {
			t.Fatalf("row %d: full %v != strip-mined %v", i, full[i], part[i])
		}
	}
}

func TestMulVecRangeExcludingCols(t *testing.T) {
	a := smallTestMatrix()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	// Exclude columns [1,3): contributions from x[1], x[2] dropped.
	a.MulVecRangeExcludingCols(x, y, 0, 4, 1, 3)
	want := []float64{4, -1, -4, 16}
	for i := range y {
		if !almostEqual(y[i], want[i], 1e-15) {
			t.Fatalf("excl[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecRangeExcludingColsIdentityWhenEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSparse(100, 5, rng)
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 100)
	y2 := make([]float64, 100)
	a.MulVec(x, y1)
	a.MulVecRangeExcludingCols(x, y2, 0, 100, 0, 0) // empty exclusion
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("row %d differs with empty exclusion", i)
		}
	}
}

func TestMulVecRangeExcludingBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSparse(120, 7, rng)
	x := make([]float64, 120)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Excluding blocks [10,20) and [50,60) must equal full minus those columns' contributions.
	got := make([]float64, 120)
	a.MulVecRangeExcludingBlocks(x, got, 0, 120, [][2]int{{10, 20}, {50, 60}})
	want := make([]float64, 120)
	xMasked := append([]float64(nil), x...)
	for i := 10; i < 20; i++ {
		xMasked[i] = 0
	}
	for i := 50; i < 60; i++ {
		xMasked[i] = 0
	}
	a.MulVec(xMasked, want)
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-13) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestDiagBlock(t *testing.T) {
	a := smallTestMatrix()
	d := a.DiagBlock(1, 3)
	if d.Rows != 2 || d.Cols != 2 {
		t.Fatalf("DiagBlock dims %dx%d", d.Rows, d.Cols)
	}
	if d.At(0, 0) != 4 || d.At(0, 1) != -1 || d.At(1, 0) != -1 || d.At(1, 1) != 4 {
		t.Fatalf("DiagBlock values wrong: %+v", d.Data)
	}
}

func TestDiag(t *testing.T) {
	a := smallTestMatrix()
	d := a.Diag()
	for i, v := range d {
		if v != 4 {
			t.Fatalf("Diag[%d] = %v", i, v)
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !smallTestMatrix().IsSymmetric(1e-14) {
		t.Fatal("tridiagonal matrix should be symmetric")
	}
	asym := NewCSRFromTriplets(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 1, 1}})
	if asym.IsSymmetric(1e-14) {
		t.Fatal("asymmetric matrix flagged symmetric")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSparse(50, 4, rng)
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Cols[k]
			if at.At(int(j), i) != a.Vals[k] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Double transpose is identity.
	att := at.Transpose()
	for i := range a.Vals {
		if att.Vals[i] != a.Vals[i] || att.Cols[i] != a.Cols[i] {
			t.Fatal("double transpose differs")
		}
	}
}

// TestClone: a clone shares nothing with its original, whether the
// original is held as its diagonals (smallTestMatrix is) or as arrays.
func TestClone(t *testing.T) {
	a := smallTestMatrix()
	b := a.Clone()
	b.DisableShadow("dia")
	b.Vals[0] = 99
	if a.At(0, 0) == 99 {
		t.Fatal("Clone aliases original")
	}
	c := b.Clone()
	c.DisableShadow("dia")
	c.Vals[0] = 7
	if b.Vals[0] != 99 {
		t.Fatal("Clone aliases original")
	}
}

func TestOffBlockRowAbsSum(t *testing.T) {
	a := smallTestMatrix()
	// Row 1 has entries -1 (col 0), 4 (col 1), -1 (col 2). Off block [1,2): |−1|+|−1| = 2.
	if got := a.OffBlockRowAbsSum(1, 1, 2); got != 2 {
		t.Fatalf("OffBlockRowAbsSum = %v, want 2", got)
	}
	// Whole row inside the block -> 0.
	if got := a.OffBlockRowAbsSum(1, 0, 4); got != 0 {
		t.Fatalf("OffBlockRowAbsSum = %v, want 0", got)
	}
}

func TestRowNNZ(t *testing.T) {
	a := smallTestMatrix()
	if a.RowNNZ(0) != 2 || a.RowNNZ(1) != 3 {
		t.Fatalf("RowNNZ = %d,%d", a.RowNNZ(0), a.RowNNZ(1))
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	a := smallTestMatrix()
	a.DisableShadow("dia")                      // the arrays to corrupt
	a.Cols[0], a.Cols[1] = a.Cols[1], a.Cols[0] // break ordering
	if err := a.Validate(); err == nil {
		t.Fatal("Validate missed unsorted columns")
	}
}

// TestBytesCountsHeldArrays: Bytes is the summed len × element size of
// the arrays an operator holds, whichever shadow it selected, with a
// mirrored pair's one backing (n + k doubles) counted once.
func TestBytesCountsHeldArrays(t *testing.T) {
	dia := stencil27(8)
	sell := randShortRowCSR(1000, 7)
	csr := randShortRowCSR(1000, 7)
	csr.DisableShadow("sell")
	for _, c := range []struct {
		a      *CSR
		shadow string
	}{{dia, "dia"}, {sell, "sell"}, {csr, "csr32"}} {
		a := c.a
		if a.ShadowName() != c.shadow {
			t.Fatalf("shadow %s, want %s", a.ShadowName(), c.shadow)
		}
		want := 8*len(a.Vals) + 4*len(a.Cols) + 4*len(a.RowPtr)
		if c.shadow == "dia" {
			want += 8 * len(a.diaOffs)
			for _, o := range a.diaOffs {
				if o >= 0 { // −o shares its backing (stencil27 is symmetric)
					want += 8 * (a.N + o)
				}
			}
		}
		for _, s := range [][]int32{a.sellPtr, a.sellWin, a.sellRows, a.sellLens, a.sellMin, a.sellCols} {
			want += 4 * len(s)
		}
		want += 8 * len(a.sellVals)
		if got := a.Bytes(); got != int64(want) {
			t.Errorf("%s: Bytes() = %d, want %d", c.shadow, got, want)
		}
	}
	if len(dia.diaOffs) != 27 || len(sell.sellVals) == 0 {
		t.Fatalf("fixtures: %d diagonals, %d SELL slots", len(dia.diaOffs), len(sell.sellVals))
	}
}
