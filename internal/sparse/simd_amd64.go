//go:build !race

package sparse

// useAVX2 selects the assembly bodies of simd_amd64.s: the DIA group
// kernels, AxpyRange, XpbyRange, XpbyOutRange and AxpyDotRange, and the
// dot pass behind DotRange and the fused SpMVs' partials. It is
// read from the processor once, at package init, and from nothing else.
// The Go bodies stay the path everywhere else and the oracle the
// assembly is tested against; tests and benchmarks switch between the
// two by setting it.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the processor has AVX2 and the operating
// system saves the YMM registers across context switches: CPUID leaf 1
// (OSXSAVE, AVX), XCR0 (XMM and YMM state enabled) and leaf 7 (AVX2).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly bodies. Every slice the Go body would cut to len(y) (or
// len(x)) must be at least that long: the callers check it. A body with
// a reduction adds its terms to the lanes behind acc, in the package's
// reduction order (fused.go).

//go:noescape
func diaWriteAVX2(y []float64, vs, xs *[diaGroup][]float64, width int)

//go:noescape
func diaAccumAVX2(y []float64, vs, xs *[diaGroup][]float64, width int)

//go:noescape
func diaAccumDotAVX2(y, w []float64, vs, xs *[diaGroup][]float64, width int, acc *[2]lanes)

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpyDotAVX2(alpha float64, x, y []float64, acc *lanes)

//go:noescape
func dotAVX2(x, y []float64, acc *lanes)

//go:noescape
func xpbyAVX2(x []float64, beta float64, y []float64)

//go:noescape
func xpbyOutAVX2(x []float64, beta float64, y, out []float64)
