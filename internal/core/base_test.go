package core

import (
	"strings"
	"testing"

	"repro/internal/sparse"
)

// baseSolver builds a solver through its constructor and runs it, so one
// table states the contract the solvers share.
type baseSolver struct {
	Name string
	SPD  bool
	Run  func(a *sparse.CSR, b []float64, cfg Config) (Result, error)
}

var baseSolvers = []baseSolver{
	{"cg", true, func(a *sparse.CSR, b []float64, cfg Config) (Result, error) {
		s, err := NewCG(a, b, cfg)
		if err != nil {
			return Result{}, err
		}
		return s.Run()
	}},
	{"bicgstab", false, func(a *sparse.CSR, b []float64, cfg Config) (Result, error) {
		s, err := NewBiCGStab(a, b, cfg)
		if err != nil {
			return Result{}, err
		}
		res, _, err := s.Run()
		return res, err
	}},
	{"gmres", false, func(a *sparse.CSR, b []float64, cfg Config) (Result, error) {
		s, err := NewGMRES(a, b, 0, cfg)
		if err != nil {
			return Result{}, err
		}
		res, _, err := s.Run()
		return res, err
	}},
}

// TestSolverBaseRefusesBadInput: every constructor refuses a non-square
// matrix, a right-hand side of the wrong length and a shared block cache
// built with the other SPD setting, each with its own message.
func TestSolverBaseRefusesBadInput(t *testing.T) {
	a, b := testSystem()
	rect := sparse.NewCSRFromTriplets(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	cfg := testConfig(MethodFEIR)
	layout := sparse.BlockLayout{N: a.N, BlockSize: cfg.PageDoubles}
	for _, sv := range baseSolvers {
		other := cfg
		other.Blocks = sparse.NewBlockSolverCache(a, layout, !sv.SPD)
		for _, c := range []struct {
			name string
			a    *sparse.CSR
			b    []float64
			cfg  Config
			want string
		}{
			{"non-square", rect, []float64{1, 2}, cfg, "core: non-square matrix 2x3"},
			{"rhs length", a, b[:10], cfg, "core: rhs length 10 for n=1600"},
			{"blocks spd", a, b, other, "core: shared block cache mismatch"},
		} {
			_, err := sv.Run(c.a, c.b, c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: err = %v, want %q", sv.Name, c.name, err, c.want)
			}
		}
	}
}
