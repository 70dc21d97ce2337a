package matgen

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// PaperMatrixNames lists the nine University of Florida matrices of the
// paper's evaluation (§5.1, Figure 4), in the paper's display order.
var PaperMatrixNames = []string{
	"af_shell8",
	"cfd2",
	"consph",
	"Dubcova3",
	"ecology2",
	"parabolic_fem",
	"qa8fm",
	"thermal2",
	"thermomech",
}

// PaperSizes records the original dimensions of the paper's matrices, for
// documentation and for choosing default scaled-down sizes.
var PaperSizes = map[string]int{
	"af_shell8":     504855,
	"cfd2":          123440,
	"consph":        83334,
	"Dubcova3":      146689,
	"ecology2":      999999,
	"parabolic_fem": 525825,
	"qa8fm":         66127,
	"thermal2":      1228045,
	"thermomech":    102158,
}

// AFShellAnalogue mimics af_shell8 (sheet-metal forming shell model):
// banded SPD, ~25 nnz/row, moderate conditioning. n is the target
// dimension.
func AFShellAnalogue(n int) *sparse.CSR {
	return Banded(n, 12, 1.05, 0xAF5E11)
}

// CFDAnalogue mimics cfd2 (pressure matrix from a CFD solver): 2-D
// 9-point stencil with variable coefficients, moderate-slow convergence.
func CFDAnalogue(n int) *sparse.CSR {
	nx, ny := gridSides(n)
	return Stencil9(nx, ny, 0.02, 0xCFD2)
}

// ConsphAnalogue mimics consph (FEM of concentric spheres, dense rows,
// ~72 nnz/row): random-geometry SPD with many couplings per row.
func ConsphAnalogue(n int) *sparse.CSR {
	return RandomSPD(n, 60, 1.02, 0xC045)
}

// DubcovaAnalogue mimics Dubcova3 (2-D PDE, fast converging): 5-point
// stencil with a strong diagonal shift.
func DubcovaAnalogue(n int) *sparse.CSR {
	nx, ny := gridSides(n)
	return Poisson2DVarCoeff(nx, ny, 1.0, func(x, y float64) float64 { return 1 + 0.5*x*y })
}

// EcologyAnalogue mimics ecology2 (5-point landscape/circuit-theory
// Laplacian, ~1M rows, slow-moderate convergence).
func EcologyAnalogue(n int) *sparse.CSR {
	nx, ny := gridSides(n)
	return Poisson2DVarCoeff(nx, ny, 0.005, func(x, y float64) float64 { return 1 })
}

// ParabolicFEMAnalogue mimics parabolic_fem (diffusion-convection FEM,
// 7 nnz/row, mass-plus-stiffness structure): I + dt·L, converges at a
// medium rate.
func ParabolicFEMAnalogue(n int) *sparse.CSR {
	nx, ny := gridSides(n)
	return Poisson2DVarCoeff(nx, ny, 0.3, func(x, y float64) float64 { return 0.5 + x })
}

// QA8FMAnalogue mimics qa8fm (3-D acoustics FE mass matrix): 27-point
// couplings with heavy diagonal dominance, κ ≈ O(10), converges in tens of
// iterations — the paper's fastest case.
func QA8FMAnalogue(n int) *sparse.CSR {
	nx, ny, nz := cubeSides(n)
	// The 27-point Laplacian shifted by 40 on the diagonal: mass-matrix-like
	// conditioning.
	return stencil27(nx, ny, nz, 26+40)
}

// Thermal2Analogue mimics thermal2 (unstructured thermal FEM, 1.2M rows,
// the paper's slowest-converging case): 5-point stencil with rough
// variable conductivity and a tiny shift.
func Thermal2Analogue(n int) *sparse.CSR {
	nx, ny := gridSides(n)
	return Poisson2DVarCoeff(nx, ny, 1e-4, func(x, y float64) float64 {
		// Rough, high-contrast conductivity field.
		if (int(x*8)+int(y*8))%2 == 0 {
			return 0.05
		}
		return 1.0
	})
}

// ThermomechAnalogue mimics thermomech_TC (thermomechanical coupling,
// fast converging): 3-D 7-point with a dominant diagonal.
func ThermomechAnalogue(n int) *sparse.CSR {
	nx, ny, nz := cubeSides(n)
	return Poisson3D7(nx, ny, nz, 8)
}

// PaperMatrix builds the named analogue at approximately dimension n (the
// exact dimension may round up to a full grid). Unknown names return an
// error listing the valid ones.
func PaperMatrix(name string, n int) (*sparse.CSR, error) {
	switch name {
	case "af_shell8":
		return AFShellAnalogue(n), nil
	case "cfd2":
		return CFDAnalogue(n), nil
	case "consph":
		return ConsphAnalogue(n), nil
	case "Dubcova3":
		return DubcovaAnalogue(n), nil
	case "ecology2":
		return EcologyAnalogue(n), nil
	case "parabolic_fem":
		return ParabolicFEMAnalogue(n), nil
	case "qa8fm":
		return QA8FMAnalogue(n), nil
	case "thermal2":
		return Thermal2Analogue(n), nil
	case "thermomech":
		return ThermomechAnalogue(n), nil
	}
	valid := append([]string(nil), PaperMatrixNames...)
	sort.Strings(valid)
	return nil, fmt.Errorf("matgen: unknown paper matrix %q (valid: %v)", name, valid)
}
