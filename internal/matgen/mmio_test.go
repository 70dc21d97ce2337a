package matgen

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
1 3 -1.5
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 3 || a.M != 3 || a.NNZ() != 4 {
		t.Fatalf("dims %dx%d nnz %d", a.N, a.M, a.NNZ())
	}
	if a.At(0, 2) != -1.5 || a.At(1, 1) != 3 {
		t.Fatal("values wrong")
	}
}

// TestReadMatrixMarketDuplicatesSumInFileOrder: repeated entries of one
// cell add up in the order the file lists them: (1e16 + 1) - 1e16 = 0 and
// (1 + 1e16) - 1e16 = 0, where other orders of the same three give 1.
func TestReadMatrixMarketDuplicatesSumInFileOrder(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
2 2 7
1 2 1e16
2 1 1
2 2 3
1 2 1
2 1 1e16
1 2 -1e16
2 1 -1e16
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 3 || a.At(0, 1) != 0 || a.At(1, 0) != 0 || a.At(1, 1) != 3 {
		t.Fatalf("assembled %v %v %v, want (1,2) = (2,1) = 0 and (2,2) = 3", a.RowPtr, a.Cols, a.Vals)
	}
}

func TestReadMatrixMarketSymmetricExpands(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5
2 1 -1
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric expansion missing")
	}
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", a.NNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern entries not 1.0")
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 || a.At(0, 1) != -3 {
		t.Fatal("skew expansion wrong")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"badheader", "%%NotMM matrix\n1 1 0\n"},
		{"badformat", "%%MatrixMarket matrix array real general\n1 1\n"},
		{"badfield", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n"},
		{"badsym", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n"},
		{"outofrange", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"shortentries", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"},
		{"badvalue", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n"},
		{"missingvalue", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n"},
		{"zerodim", "%%MatrixMarket matrix coordinate real general\n0 0 0\n"},
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadMatrixMarketRefusesPastInt32: a size line claiming more rows,
// columns or entries than an int32 index holds is refused with
// sparse.ErrTooLarge before any entry is read (the entry buffer is sized
// from the claim, so reading on would first try to allocate it).
func TestReadMatrixMarketRefusesPastInt32(t *testing.T) {
	for _, size := range []string{"3000000000 4 1", "4 3000000000 1", "4 4 3000000000"} {
		src := "%%MatrixMarket matrix coordinate real general\n" + size + "\n1 1 1.0\n"
		if _, err := ReadMatrixMarket(strings.NewReader(src)); !errors.Is(err, sparse.ErrTooLarge) {
			t.Errorf("%q: err = %v, want sparse.ErrTooLarge", size, err)
		}
	}
}

func TestMatrixMarketRoundTripGeneral(t *testing.T) {
	a := RandomSPD(40, 6, 1.1, 11)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, false); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCSR(t, a, b)
}

func TestMatrixMarketRoundTripSymmetric(t *testing.T) {
	a := Poisson2D(6, 6)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, true); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCSR(t, a, b)
}

func requireEqualCSR(t *testing.T, a, b *sparse.CSR) {
	t.Helper()
	if a.N != b.N || a.M != b.M || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d", a.N, a.M, a.NNZ(), b.N, b.M, b.NNZ())
	}
	var buf sparse.RowBuf
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i, &buf)
		for k, c := range cols {
			if got := b.At(i, int(c)); got != vals[k] {
				t.Fatalf("(%d,%d) = %v, want %v", i, c, got, vals[k])
			}
		}
	}
}
