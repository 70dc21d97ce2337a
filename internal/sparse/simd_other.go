//go:build !amd64 || race

package sparse

// Without the amd64 assembly — on other architectures, and in -race
// builds, so that the race detector instruments every kernel access —
// every kernel runs its Go body. The stubs below are never called.
var useAVX2 = false

func diaWriteAVX2(y []float64, vs, xs *[diaGroup][]float64, width int) { panic(noSIMD) }

func diaAccumAVX2(y []float64, vs, xs *[diaGroup][]float64, width int) { panic(noSIMD) }

func diaAccumDotAVX2(y, w []float64, vs, xs *[diaGroup][]float64, width int, acc *[2]lanes) {
	panic(noSIMD)
}

func axpyAVX2(alpha float64, x, y []float64) { panic(noSIMD) }

func axpyDotAVX2(alpha float64, x, y []float64, acc *lanes) { panic(noSIMD) }

func dotAVX2(x, y []float64, acc *lanes) { panic(noSIMD) }

func xpbyAVX2(x []float64, beta float64, y []float64) { panic(noSIMD) }

func xpbyOutAVX2(x []float64, beta float64, y, out []float64) { panic(noSIMD) }

const noSIMD = "sparse: no SIMD body in this build"
