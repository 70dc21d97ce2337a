package matgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// withArrays is a's twin with its CSR arrays kept: an operator held as
// its diagonals gets them rebuilt from the diagonals.
func withArrays(a *sparse.CSR) *sparse.CSR {
	b := a.Clone()
	b.DisableShadow("dia")
	return b
}

// assemblyHash fingerprints everything an assembled operator exposes:
// RowPtr, Cols, the bits of Vals (rebuilt from the diagonals when the
// operator is held as them), the kernel shadow the constructor selected,
// and one SpMV through that shadow.
func assemblyHash(a *sparse.CSR) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	arr := withArrays(a)
	for _, p := range arr.RowPtr {
		word(uint64(p))
	}
	for _, c := range arr.Cols {
		word(uint64(c))
	}
	for _, v := range arr.Vals {
		word(math.Float64bits(v))
	}
	h.Write([]byte(a.ShadowName()))
	y := make([]float64, a.N)
	a.MulVec(RandomVector(a.M, 1), y)
	for _, v := range y {
		word(math.Float64bits(v))
	}
	return fmt.Sprintf("%s/%016x", a.ShadowName(), h.Sum64())
}

// TestAssemblyBitwiseOracle pins every generator's assembled operator to
// the hashes recorded before the assembly moved from a comparison sort to
// a counting sort by row: the same arrays bit for bit, the same shadow,
// the same SpMV.
func TestAssemblyBitwiseOracle(t *testing.T) {
	golden := map[string]string{
		"ConsphAnalogue(4096)":    "csr32/f0bbcb1d85c87e7b",
		"Dubcova3(8192)":          "dia/15ef739a201263a9",
		"Poisson3D27(32,32,32)":   "dia/177262d403756c1c",
		"RandomSPD(4096,8,1.5,7)": "sell/269bae1b227de270",
		"Thermal2Analogue(16384)": "dia/bbf7d45a97126842",
		"Thermal2Analogue(4096)":  "dia/ba150c9cab0b7667",
		"af_shell8(8192)":         "dia/a27336dec2b4a06a",
		"cfd2(8192)":              "dia/74069b0a0f60bdfd",
		"consph(8192)":            "csr32/39ab572d245d934a",
		"ecology2(8192)":          "dia/8a00d83556aaa9c1",
		"parabolic_fem(8192)":     "dia/f33ccda60cd976eb",
		"qa8fm(8192)":             "dia/ce6f72fa906d6436",
		"thermal2(8192)":          "dia/422bd50ff483fa6a",
		"thermomech(8192)":        "dia/4b342a51b64bf66d",
	}
	gens := map[string]func() *sparse.CSR{
		"Poisson3D27(32,32,32)":   func() *sparse.CSR { return Poisson3D27(32, 32, 32) },
		"Thermal2Analogue(4096)":  func() *sparse.CSR { return Thermal2Analogue(4096) },
		"Thermal2Analogue(16384)": func() *sparse.CSR { return Thermal2Analogue(16384) },
		"ConsphAnalogue(4096)":    func() *sparse.CSR { return ConsphAnalogue(4096) },
		"RandomSPD(4096,8,1.5,7)": func() *sparse.CSR { return RandomSPD(4096, 8, 1.5, 7) },
	}
	for _, name := range PaperMatrixNames {
		gens[name+"(8192)"] = func() *sparse.CSR {
			a, err := PaperMatrix(name, 8192)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	for name, gen := range gens {
		if got := assemblyHash(gen()); got != golden[name] {
			t.Errorf("%s: assembly hash %s, want %s", name, got, golden[name])
		}
	}
}

// requireSPDish validates structural invariants every generated workload
// must satisfy: valid CSR, symmetric, positive diagonal.
func requireSPDish(t *testing.T, a *sparse.CSR, name string) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if a.N != a.M {
		t.Fatalf("%s: non-square %dx%d", name, a.N, a.M)
	}
	if !a.IsSymmetric(1e-12) {
		t.Fatalf("%s: not symmetric", name)
	}
	for i, d := range a.Diag() {
		if d <= 0 {
			t.Fatalf("%s: non-positive diagonal %v at %d", name, d, i)
		}
	}
}

// cgProbe runs plain CG and returns iterations to reach rtol, or -1.
func cgProbe(a *sparse.CSR, rtol float64, maxIter int) int {
	n := a.N
	b := Ones(n)
	x := make([]float64, n)
	g := make([]float64, n)
	d := make([]float64, n)
	q := make([]float64, n)
	copy(g, b)
	copy(d, b)
	bnorm := sparse.Norm2(b)
	eps := sparse.Dot(g, g)
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(eps)/bnorm < rtol {
			return it
		}
		a.MulVec(d, q)
		alpha := eps / sparse.Dot(q, d)
		sparse.Axpy(alpha, d, x)
		sparse.Axpy(-alpha, q, g)
		epsNew := sparse.Dot(g, g)
		beta := epsNew / eps
		eps = epsNew
		sparse.Xpby(g, beta, d)
	}
	return -1
}

func TestPoisson2DStructure(t *testing.T) {
	a := Poisson2D(10, 12)
	requireSPDish(t, a, "poisson2d")
	if a.N != 120 {
		t.Fatalf("N = %d, want 120", a.N)
	}
	// Interior row has 5 entries.
	if got := a.RowNNZ(5*12 + 6); got != 5 {
		t.Fatalf("interior row nnz = %d, want 5", got)
	}
	// Corner row has 3.
	if got := a.RowNNZ(0); got != 3 {
		t.Fatalf("corner row nnz = %d, want 3", got)
	}
}

func TestPoisson3D27Structure(t *testing.T) {
	a := Poisson3D27(4, 4, 4)
	requireSPDish(t, a, "poisson3d27")
	if a.N != 64 {
		t.Fatalf("N = %d, want 64", a.N)
	}
	// Interior node (1,1,1)... for a 4^3 grid index (1*4+1)*4+1 = 21 has 27 entries.
	if got := a.RowNNZ(21); got != 27 {
		t.Fatalf("interior row nnz = %d, want 27", got)
	}
	// Row sums are >= 0 (diagonally dominant by construction at boundaries).
	var buf sparse.RowBuf
	for i := 0; i < a.N; i++ {
		var s float64
		_, vals := a.Row(i, &buf)
		for _, v := range vals {
			s += v
		}
		if s < -1e-12 {
			t.Fatalf("row %d sum %v < 0", i, s)
		}
	}
}

func TestPoisson3D7Structure(t *testing.T) {
	a := Poisson3D7(3, 4, 5, 1.5)
	requireSPDish(t, a, "poisson3d7")
	if a.N != 60 {
		t.Fatalf("N = %d", a.N)
	}
	if a.At(0, 0) != 6+1.5 {
		t.Fatalf("diag = %v", a.At(0, 0))
	}
}

func TestPoisson2DVarCoeffSymmetricWithRoughField(t *testing.T) {
	a := Poisson2DVarCoeff(8, 8, 0.01, func(x, y float64) float64 {
		if x > 0.5 {
			return 10
		}
		return 0.1
	})
	requireSPDish(t, a, "varcoeff")
}

func TestStencil9Structure(t *testing.T) {
	a := Stencil9(9, 9, 0.1, 1)
	requireSPDish(t, a, "stencil9")
	// Interior row: 9 entries (8 neighbours + diagonal).
	if got := a.RowNNZ(4*9 + 4); got != 9 {
		t.Fatalf("interior row nnz = %d, want 9", got)
	}
}

func TestBandedStructure(t *testing.T) {
	a := Banded(100, 5, 1.1, 42)
	requireSPDish(t, a, "banded")
	var buf sparse.RowBuf
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i, &buf)
		for _, c := range cols {
			if d := int(c) - i; d > 5 || d < -5 {
				t.Fatalf("entry (%d,%d) outside band", i, c)
			}
		}
	}
}

func TestBandedDeterministic(t *testing.T) {
	a := withArrays(Banded(50, 3, 1.2, 7))
	b := withArrays(Banded(50, 3, 1.2, 7))
	if a.NNZ() != b.NNZ() {
		t.Fatal("banded generator not deterministic in structure")
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatal("banded generator not deterministic in values")
		}
	}
}

// BenchmarkRandomSPD generates serve-mix's csr32 operator
// (ConsphAnalogue(4096): about 60 couplings per row), assembly included.
func BenchmarkRandomSPD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomSPD(4096, 60, 1.02, 0xC045)
	}
}

// BenchmarkPoisson3D27 generates cg-stream's operator (32³, 27 points),
// row-by-row assembly and the DIA shadow included.
func BenchmarkPoisson3D27(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Poisson3D27(32, 32, 32)
	}
}

// TestPoisson3D27AllocatesWhatItBuilds: generating cg-stream's operator
// allocates at most 1.25× what assembly has to materialise — the CSR
// arrays (12 B per entry, 4 B per row pointer) and the diagonals the
// operator keeps (Bytes) — so no per-entry transient (a triplet list
// was 24 B per entry) and no growth of an under-sized builder comes back.
func TestPoisson3D27AllocatesWhatItBuilds(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := Poisson3D27(32, 32, 32)
	runtime.ReadMemStats(&after)
	built := 12*a.NNZ() + 4*(a.N+1) + int(a.Bytes())
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.25*float64(built) {
		t.Fatalf("allocated %d B to build %d B of arrays and diagonals (%.2f×, want ≤ 1.25×)", got, built, float64(got)/float64(built))
	}
	if a.ShadowName() != "dia" || a.RowPtr != nil || a.NNZ() != 94*94*94 {
		t.Fatalf("fixture: shadow %s, arrays dropped %v, %d entries", a.ShadowName(), a.RowPtr == nil, a.NNZ())
	}
}

func TestRandomSPDStructure(t *testing.T) {
	a := RandomSPD(200, 10, 1.05, 3)
	requireSPDish(t, a, "randomspd")
}

func TestAllPaperAnaloguesAreSPDAndCGConverges(t *testing.T) {
	for _, name := range PaperMatrixNames {
		a, err := PaperMatrix(name, 900)
		if err != nil {
			t.Fatal(err)
		}
		requireSPDish(t, a, name)
		it := cgProbe(a, 1e-8, 20000)
		if it < 0 {
			t.Fatalf("%s: CG did not converge in 20000 iterations", name)
		}
		t.Logf("%s: n=%d nnz=%d CG iters=%d", name, a.N, a.NNZ(), it)
	}
}

func TestAnalogueConvergenceOrdering(t *testing.T) {
	// qa8fm must converge much faster than thermal2 — the paper's spread
	// of "fast" vs "slow" matrices drives the Fig 4 trade-offs.
	fast, err := PaperMatrix("qa8fm", 1000)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := PaperMatrix("thermal2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	itFast := cgProbe(fast, 1e-8, 50000)
	itSlow := cgProbe(slow, 1e-8, 50000)
	if itFast < 0 || itSlow < 0 {
		t.Fatalf("convergence probe failed: fast=%d slow=%d", itFast, itSlow)
	}
	if itFast*4 > itSlow {
		t.Fatalf("expected qa8fm (%d iters) to be at least 4x faster than thermal2 (%d iters)", itFast, itSlow)
	}
}

func TestPaperMatrixUnknownName(t *testing.T) {
	if _, err := PaperMatrix("nope", 100); err == nil {
		t.Fatal("accepted unknown matrix name")
	}
}

func TestPaperNamesHaveSizes(t *testing.T) {
	for _, name := range PaperMatrixNames {
		if PaperSizes[name] == 0 {
			t.Fatalf("no recorded paper size for %s", name)
		}
	}
}

func TestRandomVectorDeterministic(t *testing.T) {
	a := RandomVector(10, 5)
	b := RandomVector(10, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomVector not deterministic")
		}
	}
}

func TestOnes(t *testing.T) {
	v := Ones(3)
	if v[0] != 1 || v[1] != 1 || v[2] != 1 {
		t.Fatalf("Ones = %v", v)
	}
}

func TestGridHelpers(t *testing.T) {
	nx, ny := gridSides(100)
	if nx*ny < 100 {
		t.Fatalf("gridSides(100) = %d,%d too small", nx, ny)
	}
	cx, cy, cz := cubeSides(100)
	if cx*cy*cz < 100 {
		t.Fatalf("cubeSides(100) = %d,%d,%d too small", cx, cy, cz)
	}
}

// TestAnaloguesSpMVMatchesRawArrays guards against stale kernel shadows:
// an analogue that edits Vals after construction (qa8fm's diagonal
// shift) must rebuild the shadows, or the shadow-dispatched SpMV would
// silently apply a different operator than the CSR arrays describe.
func TestAnaloguesSpMVMatchesRawArrays(t *testing.T) {
	for _, name := range []string{"qa8fm", "thermal2", "Dubcova3"} {
		a, err := PaperMatrix(name, 600)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := RandomVector(a.N, 11)
		got := make([]float64, a.N)
		a.MulVec(x, got)
		arr := withArrays(a)
		for i := 0; i < a.N; i++ {
			var want float64
			for k := arr.RowPtr[i]; k < arr.RowPtr[i+1]; k++ {
				want += arr.Vals[k] * x[arr.Cols[k]]
			}
			if diff := got[i] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%s row %d: shadow SpMV %v != raw arrays %v", name, i, got[i], want)
			}
		}
	}
}
