// Package matgen generates the sparse SPD workloads of the paper's
// evaluation: discretized PDE stencils (including the HPCG-like 27-point
// 3-D Poisson operator used for the scaling study, §5.5), synthetic
// analogues of the nine University of Florida matrices (§5.1), random SPD
// matrices for property-based testing, and Matrix Market I/O so real
// matrices can be used when available.
//
// The University of Florida collection is not redistributable inside this
// offline module, so each paper matrix is replaced by a documented
// generator matched in structure class, nonzeros per row, and relative
// conditioning; DESIGN.md §3 records the mapping.
package matgen

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/sparse"
)

// Poisson2D builds the standard 5-point finite-difference Laplacian on an
// nx×ny grid with Dirichlet boundaries. The matrix is SPD with 4 on the
// diagonal and -1 couplings.
func Poisson2D(nx, ny int) *sparse.CSR {
	b := sparse.NewRowBuilder(nx*ny, nx*ny, stencilNNZ(nx, ny, 1, false))
	idx := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			b.Add(idx(i, j), 4)
			if i > 0 {
				b.Add(idx(i-1, j), -1)
			}
			if i < nx-1 {
				b.Add(idx(i+1, j), -1)
			}
			if j > 0 {
				b.Add(idx(i, j-1), -1)
			}
			if j < ny-1 {
				b.Add(idx(i, j+1), -1)
			}
			b.EndRow()
		}
	}
	return b.Build()
}

// stencilNNZ counts the entries of a radius-1 stencil on an nx×ny×nz
// grid, so that a generator's builder allocates its arrays once: along
// one axis of k points there are k self-pairs and 2(k-1) neighbour pairs.
// A star (5- or 7-point) couples along one axis at a time, a box (9- or
// 27-point) along every combination of axes.
func stencilNNZ(nx, ny, nz int, box bool) int {
	n := nx * ny * nz
	switch {
	case n == 0:
		return 0
	case box:
		return (3*nx - 2) * (3*ny - 2) * (3*nz - 2)
	}
	return n + 2*((nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
}

// Poisson2DVarCoeff builds a 5-point stencil for -div(k grad u) with a
// spatially varying conductivity field k, plus a diagonal shift. Small
// shift and rough k yield a slowly converging (large-κ) SPD system like
// thermal2; a big shift yields a fast one.
func Poisson2DVarCoeff(nx, ny int, shift float64, k func(x, y float64) float64) *sparse.CSR {
	n := nx * ny
	b := sparse.NewRowBuilder(n, n, stencilNNZ(nx, ny, 1, false))
	idx := func(i, j int) int { return i*ny + j }
	// Harmonic-mean edge conductivities keep the operator symmetric.
	edge := func(x1, y1, x2, y2 float64) float64 {
		k1, k2 := k(x1, y1), k(x2, y2)
		return 2 * k1 * k2 / (k1 + k2)
	}
	hx, hy := 1.0/float64(nx+1), 1.0/float64(ny+1)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := idx(i, j)
			x, y := float64(i+1)*hx, float64(j+1)*hy
			var diag float64
			add := func(ii, jj int, xx, yy float64) {
				w := edge(x, y, xx, yy)
				diag += w
				if ii >= 0 && ii < nx && jj >= 0 && jj < ny {
					b.Add(idx(ii, jj), -w)
				}
			}
			add(i-1, j, x-hx, y)
			add(i+1, j, x+hx, y)
			add(i, j-1, x, y-hy)
			add(i, j+1, x, y+hy)
			b.Add(r, diag+shift)
			b.EndRow()
		}
	}
	return b.Build()
}

// Poisson3D27 builds the 27-point stencil discretization of the 3-D Poisson
// equation used by the HPCG benchmark and the paper's scaling study
// (§5.5, 512³ unknowns on MareNostrum). Diagonal 26, off-diagonals -1 to
// each of the up-to-26 neighbours in the 3×3×3 cube.
func Poisson3D27(nx, ny, nz int) *sparse.CSR { return stencil27(nx, ny, nz, 26) }

// stencil27 is Poisson3D27 with the given diagonal.
func stencil27(nx, ny, nz int, diag float64) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewRowBuilder(n, n, stencilNNZ(nx, ny, nz, true))
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				b.Add(idx(i, j, k), diag)
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							b.Add(idx(ii, jj, kk), -1)
						}
					}
				}
				b.EndRow()
			}
		}
	}
	return b.Build()
}

// Poisson3D7 builds the 7-point stencil 3-D Laplacian with a diagonal
// shift; shift > 0 improves conditioning.
func Poisson3D7(nx, ny, nz int, shift float64) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewRowBuilder(n, n, stencilNNZ(nx, ny, nz, false))
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				b.Add(idx(i, j, k), 6+shift)
				for _, d := range [...][3]int{{i - 1, j, k}, {i + 1, j, k}, {i, j - 1, k}, {i, j + 1, k}, {i, j, k - 1}, {i, j, k + 1}} {
					if d[0] < 0 || d[0] >= nx || d[1] < 0 || d[1] >= ny || d[2] < 0 || d[2] >= nz {
						continue
					}
					b.Add(idx(d[0], d[1], d[2]), -1)
				}
				b.EndRow()
			}
		}
	}
	return b.Build()
}

// Stencil9 builds a 2-D 9-point stencil with variable coefficients
// (CFD-pressure-like): 8 neighbour couplings plus a dominant diagonal.
func Stencil9(nx, ny int, shift float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny
	b := sparse.NewRowBuilder(n, n, stencilNNZ(nx, ny, 1, true))
	idx := func(i, j int) int { return i*ny + j }
	// Symmetric edge weights: derive from a per-node potential field.
	pot := make([]float64, n)
	for i := range pot {
		pot[i] = 0.5 + rng.Float64()
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := idx(i, j)
			var diag float64
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					ii, jj := i+di, j+dj
					if ii < 0 || ii >= nx || jj < 0 || jj >= ny {
						continue
					}
					c := idx(ii, jj)
					w := math.Sqrt(pot[r] * pot[c]) // symmetric by construction
					if di != 0 && dj != 0 {
						w *= 0.5 // weaker diagonal couplings
					}
					b.Add(c, -w)
					diag += w
				}
			}
			b.Add(r, diag+shift)
			b.EndRow()
		}
	}
	return b.Build()
}

// Banded builds a symmetric banded SPD matrix with the given half
// bandwidth: A[i][j] nonzero for |i-j| <= half, smooth entry decay, and
// diagonal dominance controlled by dominance (>= 1 keeps it SPD;
// values near 1 make it ill-conditioned).
func Banded(n, half int, dominance float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]sparse.Triplet, 0, (2*half+1)*n)
	// Draw the symmetric off-diagonals in (row, col) order, then set the
	// diagonal to the absolute row sum times dominance.
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j <= i+half && j < n; j++ {
			v := -(0.2 + 0.8*rng.Float64()) / float64(j-i)
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
			tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: v}, sparse.Triplet{Row: j, Col: i, Val: v})
		}
	}
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: rowAbs[i]*dominance + 1e-8})
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// RandomSPD builds a random sparse SPD matrix with roughly nnzPerRow
// off-diagonal entries per row (symmetric pattern) and diagonal dominance
// factor dominance >= 1.
func RandomSPD(n, nnzPerRow int, dominance float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	// Each draw couples a pair (Row < Col); the pair's last draw wins.
	draws := make([]sparse.Triplet, 0, n*(nnzPerRow/2))
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow/2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			draws = append(draws, sparse.Triplet{Row: min(i, j), Col: max(i, j), Val: -rng.Float64()})
		}
	}
	// Bucket the draws by Row, stably, then sort each bucket by Col,
	// stably: pairs in (row, col) order, each pair's draws in draw order,
	// so the floating-point row sums below are deterministic.
	start := make([]int, n+1)
	for _, d := range draws {
		start[d.Row+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	next, pairs := append([]int(nil), start[:n]...), make([]sparse.Triplet, len(draws))
	for _, d := range draws {
		pairs[next[d.Row]] = d
		next[d.Row]++
	}
	tr := make([]sparse.Triplet, 0, 2*len(draws)+n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		row := pairs[start[i]:start[i+1]]
		slices.SortStableFunc(row, func(p, q sparse.Triplet) int { return p.Col - q.Col })
		for k, e := range row {
			if k+1 < len(row) && row[k+1].Col == e.Col {
				continue
			}
			rowAbs[e.Row] += math.Abs(e.Val)
			rowAbs[e.Col] += math.Abs(e.Val)
			tr = append(tr, e, sparse.Triplet{Row: e.Col, Col: e.Row, Val: e.Val})
		}
	}
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: rowAbs[i]*dominance + 0.1})
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// RandomVector returns a deterministic pseudo-random vector with standard
// normal entries.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Ones returns the all-ones vector, the conventional right-hand side for
// stencil benchmarks.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// gridSides returns nx, ny with nx*ny >= n and nearly square.
func gridSides(n int) (int, int) {
	nx := int(math.Sqrt(float64(n)))
	if nx < 1 {
		nx = 1
	}
	ny := (n + nx - 1) / nx
	return nx, ny
}

// cubeSides returns nx, ny, nz with product >= n and nearly cubic.
func cubeSides(n int) (int, int, int) {
	c := int(math.Cbrt(float64(n)))
	if c < 1 {
		c = 1
	}
	for c*c*c < n {
		c++
	}
	return c, c, c
}
