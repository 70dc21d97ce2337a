package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// afterDUERow is one row of the recovery-schedule exactness table: a CG
// configuration and the scripted damage it runs under.
type afterDUERow struct {
	name  string
	cfg   Config
	inj   []injection
	flips []flip
}

// afterDUERows builds the table {FEIR, AFEIR} × {plain, block-Jacobi} ×
// {no ABFT, ABFT with three scripted silent flips} × workers {1, 4} ×
// seeds. Each row loses 0–5 pages at iteration starts inside the first
// three quarters of the clean solve (clean[pre] iterations); under ABFT
// about half of the flips are applied at the loop top, the rest at the
// solver's next boundary. A seed scripts the same damage for every
// method and worker count, so rows differ only in the schedule.
func afterDUERows(clean map[bool]int, seeds int) []afterDUERow {
	var rows []afterDUERow
	for _, m := range []Method{MethodFEIR, MethodAFEIR} {
		for _, pre := range []bool{false, true} {
			vectors := []string{"x", "g", "q", "d0", "d1"}
			if pre {
				vectors = append(vectors, "z")
			}
			window := clean[pre] * 3 / 4
			for _, abft := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					for seed := int64(0); seed < int64(seeds); seed++ {
						rng := rand.New(rand.NewSource(seed))
						cfg := testConfig(m)
						cfg.UsePrecond, cfg.ABFT, cfg.Workers = pre, abft, workers
						row := afterDUERow{
							name: fmt.Sprintf("%v/precond=%v/abft=%v/w%d/seed%d", m, pre, abft, workers, seed),
							cfg:  cfg,
							inj:  stormInjections(rng, vectors, 25, window, rng.Intn(6)),
						}
						for i := 0; abft && i < 3; i++ {
							row.flips = append(row.flips, flip{
								it:        1 + rng.Intn(window),
								vec:       vectors[rng.Intn(len(vectors))],
								page:      rng.Intn(25),
								elem:      rng.Intn(64),
								bit:       uint(rng.Intn(64)),
								immediate: rng.Intn(2) == 0,
							})
						}
						rows = append(rows, row)
					}
				}
			}
		}
	}
	return rows
}

// runAfterDUERow solves testSystem under the row's scripted losses and
// flips and returns the result with the solver (for its solution).
func runAfterDUERow(t *testing.T, a *sparse.CSR, b []float64, row afterDUERow) (Result, *CG) {
	t.Helper()
	cg, err := NewCG(a, b, row.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := row.cfg
	cfg.OnIteration = flipHook(t, cg.Space(), row.flips, poisonAt(t, cg.Space(), row.inj, nil))
	cg.cfg = cfg // NewCG copied cfg by value
	res, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, cg
}

// liveLosses counts the scripted losses that hit data the solver reads
// before it writes it. A loss at the start of iteration t on q or on the
// direction buffer d[t%2] heals without repair: phase 1 overwrites both.
func liveLosses(inj []injection) int {
	n := 0
	for _, e := range inj {
		if e.vec != "q" && e.vec != fmt.Sprintf("d%d", e.it%2) {
			n++
		}
	}
	return n
}

// cleanIterations returns the fault-free FEIR iteration counts of
// testSystem, plain and block-Jacobi preconditioned.
func cleanIterations(t *testing.T, a *sparse.CSR, b []float64) map[bool]int {
	t.Helper()
	clean := map[bool]int{}
	for _, pre := range []bool{false, true} {
		cfg := testConfig(MethodFEIR)
		cfg.UsePrecond = pre
		res := runWithInjections(t, a, b, cfg, nil)
		if !res.Converged {
			t.Fatalf("precond=%v: clean solve did not converge: %+v", pre, res)
		}
		clean[pre] = res.Iterations
	}
	return clean
}

// TestRecoveryOnlyAfterDUEIsExact pins the one recovery schedule of the
// resilient solvers: a phase's repair runs only once a page is damaged —
// AFEIR overlaps it with the phase when the damage is there before the
// phase starts, and runs it after the phase wait when the damage shows up
// during the phase (an ABFT detection poisons a page mid-phase). Under
// scripted losses and flips every row must be exact: the clean iteration
// count with no lost contribution, no unrecovered page and no restart,
// and a row that lost live data or detected a flip must have repaired it.
func TestRecoveryOnlyAfterDUEIsExact(t *testing.T) {
	a, b := testSystem()
	clean := cleanIterations(t, a, b)
	seeds := 8
	if testing.Short() {
		seeds = 2 // the full table runs un-shortened in CI's checksum race step
	}
	for _, row := range afterDUERows(clean, seeds) {
		t.Run(row.name, func(t *testing.T) {
			res, _ := runAfterDUERow(t, a, b, row)
			s := res.Stats
			if !res.Converged || res.Iterations != clean[row.cfg.UsePrecond] {
				t.Fatalf("converged=%v in %d iterations, clean %d (stats %+v)",
					res.Converged, res.Iterations, clean[row.cfg.UsePrecond], s)
			}
			if s.ContributionsLost != 0 || s.Unrecovered != 0 || s.Restarts != 0 {
				t.Fatalf("inexact recovery: %+v", s)
			}
			if live := liveLosses(row.inj); (live > 0 || s.SDCDetected > 0) && s.RecoveredForward+s.RecoveredInverse == 0 {
				t.Fatalf("%d live losses, %d detections and no recovery: %+v", live, s.SDCDetected, s)
			}
		})
	}
}
