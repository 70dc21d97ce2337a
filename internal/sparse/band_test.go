package sparse_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// The oracle: the textbook dense factorizations the banded factors of
// band.go replaced (row-major n×n, every product formed). Factorization
// and forward substitution sum in ascending k; back substitution sums in
// descending k, the order reference BLAS dtrsv/dtbsv use for it: a row's
// last product, not its first, is then the one that waits for the row
// below, which is what lets band.go keep several rows in flight. The
// banded factors must reproduce these solves bit for bit — they skip only
// products with exact structural zeros.

func oracleCholesky(a *sparse.Dense) ([]float64, error) {
	n := a.Rows
	l := append([]float64(nil), a.Data...)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, sparse.ErrSingular
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
	return l, nil
}

func oracleCholeskySolve(l []float64, b []float64) {
	n := len(b)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := n - 1; k > i; k-- {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}

func oracleLU(a *sparse.Dense) (lu []float64, piv []int, err error) {
	n := a.Rows
	lu = append([]float64(nil), a.Data...)
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, nil, sparse.ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		d := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / d
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return lu, piv, nil
}

func oracleLUSolve(lu []float64, piv []int, b []float64) {
	n := len(b)
	x := make([]float64, n)
	for i := range x {
		x[i] = b[piv[i]]
	}
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= lu[i*n+k] * x[k]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := n - 1; k > i; k-- {
			s -= lu[i*n+k] * x[k]
		}
		x[i] = s / lu[i*n+i]
	}
	copy(b, x)
}

// oracleSolve is FactorizeBlock's Cholesky → LU → QR chain on the dense
// oracles; kind names the factor that took the block.
func oracleSolve(block *sparse.Dense, spd bool, rhs []float64) (kind string, err error) {
	if spd {
		if l, err := oracleCholesky(block); err == nil {
			oracleCholeskySolve(l, rhs)
			return "cholesky", nil
		}
	}
	if lu, piv, err := oracleLU(block); err == nil {
		oracleLUSolve(lu, piv, rhs)
		return "lu", nil
	}
	q, err := sparse.NewQR(block)
	if err != nil {
		return "", err
	}
	return "qr", q.SolveInPlace(rhs)
}

// permutedSolve solves block*x = rhs in place through the oracle chain on
// P block Pᵀ, p being a factor's order (row k of P block Pᵀ is row p[k]
// of block; nil is the natural order): x = Pᵀ (P block Pᵀ)⁻¹ P rhs. A
// block claimed SPD that is not symmetric is tried by Cholesky in its
// natural order only, as the factor chain does.
func permutedSolve(p []int, block *sparse.Dense, spd bool, rhs []float64) (kind string, err error) {
	if p == nil {
		return oracleSolve(block, spd, rhs)
	}
	if spd && !denseSymmetric(block) {
		if l, err := oracleCholesky(block); err == nil {
			oracleCholeskySolve(l, rhs)
			return "cholesky", nil
		}
		spd = false
	}
	pb := sparse.NewDense(block.Rows, block.Cols)
	y := make([]float64, len(rhs))
	for k, i := range p {
		for l, j := range p {
			pb.Set(k, l, block.At(i, j))
		}
		y[k] = rhs[i]
	}
	kind, err = oracleSolve(pb, spd, y)
	for k, i := range p {
		rhs[i] = y[k]
	}
	return kind, err
}

func denseSymmetric(a *sparse.Dense) bool {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < i; j++ {
			if a.At(i, j) != a.At(j, i) {
				return false
			}
		}
	}
	return true
}

func solverKind(s sparse.BlockSolver) string {
	switch s.(type) {
	case *sparse.Cholesky:
		return "cholesky"
	case *sparse.LU:
		return "lu"
	case *sparse.QR:
		return "qr"
	}
	return fmt.Sprintf("%T", s)
}

// convectionDiffusion is a non-symmetric 5-point operator: diffusion plus
// an upwinded convection term, diagonally dominant (LU needs no
// interchange).
func convectionDiffusion(nx, ny int) *sparse.CSR {
	var tr []sparse.Triplet
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4.5})
			if x > 0 {
				tr = append(tr, sparse.Triplet{Row: i, Col: i - 1, Val: -1.4})
			}
			if x < nx-1 {
				tr = append(tr, sparse.Triplet{Row: i, Col: i + 1, Val: -0.6})
			}
			if y > 0 {
				tr = append(tr, sparse.Triplet{Row: i, Col: i - nx, Val: -1.3})
			}
			if y < ny-1 {
				tr = append(tr, sparse.Triplet{Row: i, Col: i + nx, Val: -0.7})
			}
		}
	}
	return sparse.NewCSRFromTriplets(nx*ny, nx*ny, tr)
}

// wildBand is a non-symmetric banded matrix with a weak diagonal and
// unequal half-bandwidths, so LU interchanges rows at most steps and U
// fills to kl+ku.
func wildBand(n, kl, ku int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
			if j == i || rng.Intn(3) > 0 {
				tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

type bandCase struct {
	name string
	a    *sparse.CSR
	spd  bool
}

func bandCases(t *testing.T) []bandCase {
	t.Helper()
	var cases []bandCase
	for _, name := range matgen.PaperMatrixNames {
		a, err := matgen.PaperMatrix(name, 1500)
		for n := 1600; err == nil && a.N%64 == 0; n += 100 { // generators round n up to a grid
			a, err = matgen.PaperMatrix(name, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, bandCase{name, a, true})
	}
	cases = append(cases,
		bandCase{"poisson3d27", matgen.Poisson3D27(11, 11, 11), true},
		bandCase{"randomspd", matgen.RandomSPD(1100, 9, 1.5, 7), true},
		bandCase{"convdiff", convectionDiffusion(37, 31), false},
		bandCase{"convdiff-claimed-spd", convectionDiffusion(37, 31), true},
		bandCase{"wildband", wildBand(1100, 9, 23, 3), false},
		bandCase{"wildband-claimed-spd", wildBand(1100, 9, 23, 3), true},
		bandCase{"wildband-wide", wildBand(1100, 40, 50, 5), false}, // fills a 64-block: LU's row-major working layout
	)
	return cases
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBandedFactorsBitwiseEqualDenseOracle: for every operator class and
// both page-relevant block sizes (none divides the dimensions, so each
// has a short last block), the cached factor built from the CSR rows and
// the one FactorizeBlock builds from the dense block are the same kind of
// factor as the dense oracle's chain picks on the block in the factor's
// order, P A Pᵀ, and solve to the same bits.
func TestBandedFactorsBitwiseEqualDenseOracle(t *testing.T) {
	renumbered := 0
	for _, tc := range bandCases(t) {
		for _, bs := range []int{64, 512} {
			layout := sparse.BlockLayout{N: tc.a.N, BlockSize: bs}
			if tc.a.N%bs == 0 {
				t.Fatalf("%s: n=%d has no short last block at %d", tc.name, tc.a.N, bs)
			}
			cache := sparse.NewBlockSolverCache(tc.a, layout, tc.spd)
			for blk := 0; blk < layout.NumBlocks(); blk++ {
				lo, hi := layout.Range(blk)
				block := tc.a.DiagBlock(lo, hi)
				rhs := matgen.RandomVector(hi-lo, int64(blk+1))
				fromCSR, err := cache.Solver(blk)
				if err != nil {
					if _, oerr := oracleSolve(block, tc.spd, append([]float64(nil), rhs...)); oerr == nil {
						t.Fatalf("%s bs=%d block %d: err %v, the oracle solves", tc.name, bs, blk, err)
					}
					continue
				}
				fromDense, err := sparse.FactorizeBlock(block, tc.spd)
				if err != nil {
					t.Fatal(err)
				}
				// The oracle's solution in the order of the factor before,
				// kept while the next factor shares that order.
				var want []float64
				var wantOrder []int
				var wantKind string
				for _, src := range []struct {
					name string
					s    sparse.BlockSolver
				}{{"csr", fromCSR}, {"dense", fromDense}} {
					order := sparse.BlockOrder(src.s)
					if order != nil {
						renumbered++
					}
					if want == nil || !slices.Equal(order, wantOrder) {
						wantOrder, want = order, append([]float64(nil), rhs...)
						if wantKind, err = permutedSolve(order, block, tc.spd, want); err != nil {
							t.Fatalf("%s bs=%d block %d (%s): oracle on the factor's order: %v", tc.name, bs, blk, src.name, err)
						}
					}
					if k := solverKind(src.s); k != wantKind {
						t.Fatalf("%s bs=%d block %d (%s): factor is %s, oracle chose %s", tc.name, bs, blk, src.name, k, wantKind)
					}
					got := append([]float64(nil), rhs...)
					if err := src.s.SolveInPlace(got); err != nil {
						t.Fatal(err)
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s bs=%d block %d (%s, %s): x[%d] = %v, dense oracle %v", tc.name, bs, blk, src.name, wantKind, i, got[i], want[i])
					}
				}
			}
		}
	}
	if renumbered == 0 {
		t.Fatal("no factor was built in a renumbered order: the permuted path went untested")
	}
}

// TestBlockOrderNarrowsOrIsNatural: every factor's order is a bijection
// of the block's rows, its band is never wider than the natural one, and
// it is the natural order exactly when renumbering would not make the
// factor smaller: a renumbered factor, order included, holds fewer bytes
// than the natural factor of the same kind, and a natural one the same.
// Blocks already as narrow as they can be (a ladder, a full block) keep
// the natural order; the strips of a 2-D grid are renumbered.
func TestBlockOrderNarrowsOrIsNatural(t *testing.T) {
	cases := append(bandCases(t),
		bandCase{"ladder", matgen.Poisson2D(700, 2), true},
		bandCase{"ladder-lu", convectionDiffusion(2, 700), false},
		bandCase{"full", matgen.RandomSPD(700, 700, 1.5, 1), true},
		bandCase{"full-lu", wildBand(700, 700, 700, 1), false},
	)
	fellThrough := map[string]int{}
	for _, tc := range cases {
		layout := sparse.BlockLayout{N: tc.a.N, BlockSize: 512}
		cache := sparse.NewBlockSolverCache(tc.a, layout, tc.spd)
		for blk := 0; blk < layout.NumBlocks(); blk++ {
			s, err := cache.Solver(blk)
			if err != nil {
				continue // singular: TestFactorizeBlockFallsThroughOnBandedBlocks
			}
			lo, hi := layout.Range(blk)
			block := tc.a.DiagBlock(lo, hi)
			if tc.spd && !denseSymmetric(block) {
				// Claimed SPD but not symmetric: Cholesky, reading one
				// triangle, is tried in the natural order only, so the
				// chain takes the block where it does unrenumbered.
				if k, _ := oracleSolve(block, true, make([]float64, hi-lo)); k != solverKind(s) {
					t.Errorf("%s block %d: factor is %s, the natural chain picks %s", tc.name, blk, solverKind(s), k)
				}
				if solverKind(s) == "lu" {
					fellThrough[tc.name]++
				}
			}
			var natural sparse.BlockSolver
			switch s.(type) {
			case *sparse.Cholesky:
				natural, err = sparse.NewCholesky(block)
			case *sparse.LU:
				natural, err = sparse.NewLU(block)
			default:
				continue // QR is always natural
			}
			if err != nil {
				t.Fatalf("%s block %d: the natural %s fails: %v", tc.name, blk, solverKind(s), err)
			}
			p := sparse.BlockOrder(s)
			where := fmt.Sprintf("%s block %d (%s, half-bandwidth %d, natural %d)", tc.name, blk, solverKind(s), sparse.HalfBandwidth(s), sparse.HalfBandwidth(natural))
			if p == nil {
				if s.Bytes() != natural.Bytes() {
					t.Errorf("%s: natural order in %d bytes, the natural factor holds %d", where, s.Bytes(), natural.Bytes())
				}
				if tc.name == "thermal2" {
					t.Errorf("%s: a grid strip kept its natural order", where)
				}
				continue
			}
			seen := make([]bool, hi-lo)
			for _, i := range p {
				if seen[i] {
					t.Fatalf("%s: row %d placed twice", where, i)
				}
				seen[i] = true
			}
			if len(p) != hi-lo {
				t.Fatalf("%s: order of %d rows for %d", where, len(p), hi-lo)
			}
			if s.Bytes() >= natural.Bytes() {
				t.Errorf("%s: renumbered in %d bytes, the natural factor holds %d", where, s.Bytes(), natural.Bytes())
			}
			if sparse.HalfBandwidth(s) > sparse.HalfBandwidth(natural) {
				t.Errorf("%s: the renumbered band is wider", where)
			}
			if strings.HasPrefix(tc.name, "ladder") || strings.HasPrefix(tc.name, "full") {
				t.Errorf("%s: renumbered a block that is as narrow as it gets", where)
			}
		}
	}
	if fellThrough["convdiff-claimed-spd"] == 0 {
		t.Error("no convdiff block claimed SPD fell through to LU: the fall-through went untested")
	}
}

// TestBandedFactorIsSmallerThanDense: a factor never holds more than the
// dense n×n factor did (plus LU's pivot sequence), and a narrow band holds
// a fraction of it.
func TestBandedFactorIsSmallerThanDense(t *testing.T) {
	const n = 512
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		spd  bool
		max  int64
	}{
		{"full spd", matgen.RandomSPD(n, n, 1.5, 1), true, 8 * n * n},
		{"full general", wildBand(n, n, n, 1), false, 8*n*n + 4*n},
		{"5-point spd", matgen.Poisson2D(64, 8), true, 8 * n * (2*64 + 1)},
		{"5-point general", convectionDiffusion(64, 8), false, 8*n*(3*64+1) + 4*n},
	} {
		cache := sparse.NewBlockSolverCache(tc.a, sparse.BlockLayout{N: n, BlockSize: n}, tc.spd)
		if _, err := cache.Solver(0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cache.Bytes(); got <= 0 || got > tc.max {
			t.Errorf("%s: factor holds %d bytes, want (0, %d]", tc.name, got, tc.max)
		}
	}
}

// TestFactorizeBlockFallsThroughOnBandedBlocks pins the §2.3 chain on the
// banded path: a block that is not positive definite leaves Cholesky for
// LU, a singular one leaves LU for QR, and a block QR cannot use either
// keeps reporting ErrSingular from its solves.
func TestFactorizeBlockFallsThroughOnBandedBlocks(t *testing.T) {
	tri := func(diag, off float64) *sparse.CSR {
		var tr []sparse.Triplet
		for i := 0; i < 8; i++ {
			tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: diag})
			if i > 0 {
				tr = append(tr, sparse.Triplet{Row: i, Col: i - 1, Val: off}, sparse.Triplet{Row: i - 1, Col: i, Val: off})
			}
		}
		return sparse.NewCSRFromTriplets(8, 8, tr)
	}
	layout := sparse.BlockLayout{N: 8, BlockSize: 8}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		{"spd", tri(4, -1), "cholesky"},
		{"indefinite", tri(-4, 1), "lu"},
		{"singular", sparse.NewCSRFromTriplets(8, 8, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}}), "qr"},
	} {
		s, err := sparse.NewBlockSolverCache(tc.a, layout, true).Solver(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if k := solverKind(s); k != tc.want {
			t.Errorf("%s block factorized by %s, want %s", tc.name, k, tc.want)
		}
	}
	zero := sparse.NewBlockSolverCache(sparse.NewCSRFromTriplets(8, 8, nil), layout, true)
	zero.PrefactorizeLenient()
	if err := zero.SolveDiagBlock(0, make([]float64, 8)); !errors.Is(err, sparse.ErrSingular) {
		t.Fatalf("all-zero block: err = %v, want ErrSingular", err)
	}
}

// TestRenumberedStripIsItsHeight: a page of a 2-D grid is a strip a few
// grid rows tall; renumbered, its band is about that height, not the
// grid's width — 8 for the 64-wide grid of pcg-block (natural 64), 4 for
// the 128-wide one of storm-exact and dist-cg (natural 128).
func TestRenumberedStripIsItsHeight(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{{4096, 8}, {16384, 4}} {
		a := matgen.Thermal2Analogue(tc.n)
		cache := sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: 512}, true)
		cache.PrefactorizeLenient()
		for blk := 0; blk < cache.Layout.NumBlocks(); blk++ {
			s, err := cache.Solver(blk)
			if err != nil {
				t.Fatal(err)
			}
			if bw := sparse.HalfBandwidth(s); bw > tc.want {
				t.Errorf("thermal2-%d block %d: half-bandwidth %d, want at most %d", tc.n, blk, bw, tc.want)
			}
		}
	}
}

// TestCoupledBlocksBitwiseEqualDenseOracle: the coupled system of §2.4,
// banded in the concatenated index space of a non-adjacent page set,
// solves to the bits of the dense assembly it replaced, in the order its
// factor exposes.
func TestCoupledBlocksBitwiseEqualDenseOracle(t *testing.T) {
	for _, tc := range []bandCase{
		{"thermal2", matgen.Thermal2Analogue(1500), true},
		{"randomspd", matgen.RandomSPD(1100, 9, 1.5, 7), true},
		{"convdiff", convectionDiffusion(37, 31), false},
	} {
		layout := sparse.BlockLayout{N: tc.a.N, BlockSize: 64}
		cache := sparse.NewBlockSolverCache(tc.a, layout, tc.spd)
		group := []int{layout.NumBlocks() - 1, 2, 3, 7} // unsorted, incl. the short block
		order := []int{2, 3, 7, layout.NumBlocks() - 1}
		var idx []int
		for _, b := range order {
			lo, hi := layout.Range(b)
			for i := lo; i < hi; i++ {
				idx = append(idx, i)
			}
		}
		dense := sparse.NewDense(len(idx), len(idx))
		for r, i := range idx {
			for c, j := range idx {
				dense.Set(r, c, tc.a.At(i, j))
			}
		}
		rhs := matgen.RandomVector(len(idx), 11)
		s, err := cache.CoupledSolver(group)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := append([]float64(nil), rhs...)
		if _, err := permutedSolve(sparse.BlockOrder(s), dense, tc.spd, want); err != nil {
			t.Fatal(err)
		}
		if sparse.BlockOrder(s) == nil && tc.name == "thermal2" {
			t.Fatalf("%s: the coupled strips kept their natural order", tc.name)
		}
		got, err := cache.SolveCoupledBlocks(group, rhs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(order) {
			t.Fatalf("%s: order %v, want %v", tc.name, got, order)
		}
		if i := sameBits(rhs, want); i >= 0 {
			t.Fatalf("%s: coupled x[%d] = %v, dense oracle %v", tc.name, i, rhs[i], want[i])
		}
	}
}

// bandSPD is a dense SPD matrix whose every entry within half-bandwidth bw
// is nonzero; pivotBand a general one (kl below, ku above) whose
// subdiagonal dwarfs everything else, so partial pivoting interchanges
// rows at every step.
func bandSPD(n, bw int, seed int64) *sparse.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j < i; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
			a.Set(i, i, a.At(i, i)+math.Abs(v))
			a.Set(j, j, a.At(j, j)+math.Abs(v))
		}
		a.Set(i, i, a.At(i, i)+1)
	}
	return a
}

func pivotBand(n, kl, ku int, seed int64) *sparse.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
			a.Set(i, j, 0.1+rng.Float64())
		}
		if i > 0 && kl > 0 {
			a.Set(i, i-1, 16+rng.Float64())
		}
	}
	return a
}

// TestGroupedSubstitutionEdgeShapes: the substitutions take rows and
// columns four at a time, so the shapes where a group is clipped, does
// not fit or does not exist — tiny n, n mod 4 ≠ 0, bands narrower than a
// group, the full triangle — solve to the oracle's bits too, and the
// grouped forward sweep subtracts in the order of the one-column sweep.
func TestGroupedSubstitutionEdgeShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 511, 512} {
		seen := map[int]bool{}
		for _, bw := range []int{0, 1, 2, 3, 4, 5, n - 1} {
			if bw = min(bw, n-1); seen[bw] {
				continue
			}
			seen[bw] = true
			rhs := matgen.RandomVector(n, int64(n+bw))
			check := func(kind string, s sparse.BlockSolver, want []float64) {
				t.Helper()
				got := append([]float64(nil), rhs...)
				if err := s.SolveInPlace(got); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s n=%d bw=%d: x[%d] = %v, dense oracle %v", kind, n, bw, i, got[i], want[i])
				}
			}

			spd := bandSPD(n, bw, 1)
			c, err := sparse.NewCholesky(spd)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := oracleCholesky(spd)
			want := append([]float64(nil), rhs...)
			oracleCholeskySolve(l, want)
			check("cholesky", c, want)
			grouped, byColumn := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
			c.ForwardSubst(grouped)
			c.ForwardSubstByColumn(byColumn)
			if i := sameBits(grouped, byColumn); i >= 0 {
				t.Fatalf("forward n=%d bw=%d: y[%d] = %v grouped, %v one column at a time", n, bw, i, grouped[i], byColumn[i])
			}

			ku := min(bw+2, n-1) // kl ≠ ku unless both are clipped
			for name, a := range map[string]*sparse.Dense{
				"lu":        wildBand(n, bw, ku, 2).DiagBlock(0, n),
				"lu-pivots": pivotBand(n, bw, ku, 3),
			} {
				f, err := sparse.NewLU(a)
				if err != nil {
					t.Fatal(err)
				}
				if name == "lu-pivots" && bw > 0 && f.Swaps() != n-1 {
					t.Fatalf("n=%d kl=%d ku=%d: %d interchanges, want one at each of %d steps", n, bw, ku, f.Swaps(), n-1)
				}
				lu, piv, _ := oracleLU(a)
				want := append([]float64(nil), rhs...)
				oracleLUSolve(lu, piv, want)
				check(name, f, want)
			}
		}
	}
}

// TestBlockSolveDoesNotAllocate: the factors sit on the //due:hotpath z
// pass of the preconditioned solvers and are shared between concurrent
// solves, so SolveInPlace may neither allocate nor keep scratch — in the
// natural order (the blocks of a two-wide ladder, and a wild band whose
// LU interchanges rows at most steps) or a renumbered one (the strips of
// a 32×32 grid), which is applied to the right-hand side along its
// cycles.
func TestBlockSolveDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		kind       string
		renumbered bool
		a          *sparse.CSR
		spd, swaps bool
	}{
		{"cholesky", false, matgen.Poisson2D(512, 2), true, false},
		{"cholesky", true, matgen.Poisson2D(32, 32), true, false},
		{"lu", false, convectionDiffusion(2, 512), false, false},
		{"lu", true, convectionDiffusion(32, 32), false, false},
		{"lu", false, wildBand(1024, 9, 23, 3), false, true},
	} {
		cache := sparse.NewBlockSolverCache(tc.a, sparse.BlockLayout{N: tc.a.N, BlockSize: 512}, tc.spd)
		s, err := cache.Solver(1)
		if err != nil {
			t.Fatal(err)
		}
		if k, r := solverKind(s), sparse.BlockOrder(s) != nil; k != tc.kind || r != tc.renumbered {
			t.Fatalf("factor is %s renumbered=%v, want %s renumbered=%v", k, r, tc.kind, tc.renumbered)
		}
		if tc.swaps {
			if n := s.(*sparse.LU).Swaps(); n < 256 {
				t.Fatalf("the wild band's LU interchanges rows at %d of 512 steps", n)
			}
		}
		rhs := matgen.RandomVector(512, 5)
		if n := testing.AllocsPerRun(20, func() { _ = s.SolveInPlace(rhs) }); n != 0 {
			t.Errorf("%s (renumbered=%v) SolveInPlace allocates %v times per call", tc.kind, tc.renumbered, n)
		}
	}
	sing := sparse.NewDense(2, 2)
	copy(sing.Data, []float64{1, 1, 1, 1})
	q, err := sparse.FactorizeBlock(sing, false)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2}
	if n := testing.AllocsPerRun(20, func() { _ = q.SolveInPlace(rhs) }); n > 1 {
		t.Errorf("qr SolveInPlace allocates %v times per call, want at most 1", n)
	}
}

// TestSharedRenumberedFactorSolvesConcurrently: goroutines solving on
// one shared renumbered factor at once (the block-Jacobi apply's workers,
// recoveries beside it) each get the bits of a serial solve — the order
// is applied to each caller's own right-hand side, never to the factor.
// Run under -race it also shows that a solve writes nothing shared.
func TestSharedRenumberedFactorSolvesConcurrently(t *testing.T) {
	for _, tc := range []bandCase{
		{"cholesky", matgen.Thermal2Analogue(4096), true},
		{"lu", convectionDiffusion(64, 64), false},
	} {
		s, err := sparse.NewBlockSolverCache(tc.a, sparse.BlockLayout{N: tc.a.N, BlockSize: 512}, tc.spd).Solver(2)
		if err != nil {
			t.Fatal(err)
		}
		if k := solverKind(s); k != tc.name || sparse.BlockOrder(s) == nil {
			t.Fatalf("%s: factor is %s renumbered=%v", tc.name, k, sparse.BlockOrder(s) != nil)
		}
		const callers, rounds = 4, 25
		want := make([][]float64, callers)
		for g := range want {
			want[g] = matgen.RandomVector(512, int64(g+1))
			if err := s.SolveInPlace(want[g]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, 512)
				for r := 0; r < rounds; r++ {
					copy(x, matgen.RandomVector(512, int64(g+1)))
					if err := s.SolveInPlace(x); err != nil {
						t.Error(err)
						return
					}
					if i := sameBits(x, want[g]); i >= 0 {
						t.Errorf("%s caller %d round %d: x[%d] = %v, serial %v", tc.name, g, r, i, x[i], want[g][i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPrefactorizeParallelMatchesSerial: the parallel fill is the serial
// loop's result — same factors to the bit, one factorization per block.
func TestPrefactorizeParallelMatchesSerial(t *testing.T) {
	a := matgen.Thermal2Analogue(3000)
	layout := sparse.BlockLayout{N: a.N, BlockSize: 128}
	par := sparse.NewBlockSolverCache(a, layout, true)
	before := sparse.FactorizationCount()
	par.PrefactorizeLenient()
	par.PrefactorizeLenient() // idempotent: nothing left to factorize
	if d := sparse.FactorizationCount() - before; d != int64(layout.NumBlocks()) {
		t.Fatalf("%d factorizations for %d blocks", d, layout.NumBlocks())
	}
	ser := sparse.NewBlockSolverCache(a, layout, true)
	for blk := 0; blk < layout.NumBlocks(); blk++ {
		lo, hi := layout.Range(blk)
		x1 := matgen.RandomVector(hi-lo, int64(blk))
		x2 := append([]float64(nil), x1...)
		if err := par.SolveDiagBlock(blk, x1); err != nil {
			t.Fatal(err)
		}
		if err := ser.SolveDiagBlock(blk, x2); err != nil { // lazy, on this goroutine
			t.Fatal(err)
		}
		if i := sameBits(x1, x2); i >= 0 {
			t.Fatalf("block %d: parallel x[%d] = %v, serial %v", blk, i, x1[i], x2[i])
		}
	}
	if par.Bytes() != ser.Bytes() || par.Bytes() == 0 {
		t.Fatalf("Bytes: parallel %d, serial %d", par.Bytes(), ser.Bytes())
	}
}

// benchBlocks: one 512-row page block of the benchmark's operators —
// pcg-block's thermal2 on 4,096 rows (a strip 64 wide in natural order),
// storm-exact's and dist-cg's on 16,384 (128 wide) — a general
// convection-diffusion strip for LU, and a full block. Each case reports
// the half-bandwidth its factor is stored in: what it actually timed.
func benchBlocks() []bandCase {
	return []bandCase{
		{"thermal2-4096", matgen.Thermal2Analogue(4096), true},
		{"thermal2-16384", matgen.Thermal2Analogue(16384), true},
		{"full", matgen.RandomSPD(1024, 1024, 1.5, 1), true},
		{"convdiff-64x16-lu", convectionDiffusion(64, 16), false},
	}
}

func BenchmarkBlockFactor(b *testing.B) {
	for _, tc := range benchBlocks() {
		b.Run(tc.name, func(b *testing.B) {
			var s sparse.BlockSolver
			for i := 0; i < b.N; i++ {
				cache := sparse.NewBlockSolverCache(tc.a, sparse.BlockLayout{N: tc.a.N, BlockSize: 512}, tc.spd)
				var err error
				if s, err = cache.Solver(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sparse.HalfBandwidth(s)), "half-bandwidth")
		})
	}
}

// BenchmarkBlockSolve times one solve on one goroutine, the same with
// every processor solving at once (how the preconditioner apply runs: its
// gain is what a two-worker apply sees), and the halves of the Cholesky
// solves on their own.
func BenchmarkBlockSolve(b *testing.B) {
	for _, tc := range benchBlocks() {
		cache := sparse.NewBlockSolverCache(tc.a, sparse.BlockLayout{N: tc.a.N, BlockSize: 512}, tc.spd)
		s, err := cache.Solver(1)
		if err != nil {
			b.Fatal(err)
		}
		rhs := matgen.RandomVector(512, 1)
		bw := float64(sparse.HalfBandwidth(s))
		run := func(name string, solve func(buf []float64)) {
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				buf := make([]float64, 512)
				for i := 0; i < b.N; i++ {
					copy(buf, rhs)
					solve(buf)
				}
				b.ReportMetric(bw, "half-bandwidth")
			})
		}
		run("solve", func(buf []float64) { _ = s.SolveInPlace(buf) })
		b.Run(tc.name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				buf := make([]float64, 512)
				for pb.Next() {
					copy(buf, rhs)
					_ = s.SolveInPlace(buf)
				}
			})
			b.ReportMetric(bw, "half-bandwidth")
		})
		if c, ok := s.(*sparse.Cholesky); ok {
			run("forward", c.ForwardSubst)
			run("back", c.BackSubst)
		}
	}
}
