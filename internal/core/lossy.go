package core

import (
	"sort"

	"repro/internal/sparse"
)

// This file implements the Lossy Restart comparator (§4.3), adapted from
// Langou et al.'s Lossy Approach to the memory-page error model: lost
// iterate pages are interpolated with one block-Jacobi step
//
//	A_pp x_p = b_p - Σ_{j∉failed} A_pj x_j
//
// (discarding the residual), after which the method restarts with the
// interpolated iterate as initial guess (solverBase.lossyRestart, which
// is also every solver's endgame for a loss no relation can rebuild).
// Theorems 1–3 about this interpolation are validated in lossy_test.go.

// LossyInterpolate performs the block-Jacobi step interpolation of the
// lost pages of x, in place. failed lists the lost page indices (their
// current content is ignored and excluded from the right-hand side).
// Returns false when the coupled system cannot be solved.
//
// It is exported (within the module) so the Theorem 1–3 property tests and
// the distributed solver can exercise exactly the production interpolation
// code.
func LossyInterpolate(a *sparse.CSR, layout sparse.BlockLayout, blocks *sparse.BlockSolverCache, b, x []float64, failed []int) bool {
	if len(failed) == 0 {
		return true
	}
	failed = append([]int(nil), failed...)
	sort.Ints(failed)
	return solveBlocks(a, layout, blocks, x, b, nil, make([]float64, layout.BlockSize), failed)
}
