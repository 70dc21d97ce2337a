package core

import (
	"errors"
	"testing"

	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// wiredSolver is what the wiring tests drive of a solver: its fault
// sites, its injection targets, one Run and its repair tables.
type wiredSolver struct {
	setSite func(func(int, string, int))
	dynamic []*pagemem.Vector
	run     func() (Result, error)
	tables  []*repairTable
}

func newWired(t *testing.T, name string, a *sparse.CSR, b []float64, cfg Config) wiredSolver {
	t.Helper()
	switch name {
	case "cg":
		s, err := NewCG(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return wiredSolver{s.SetSite, s.DynamicVectors(), s.Run, []*repairTable{&s.tab1, &s.tab2}}
	case "bicgstab":
		s, err := NewBiCGStab(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (Result, error) { res, _, err := s.Run(); return res, err }
		return wiredSolver{s.SetSite, s.DynamicVectors(), run, []*repairTable{&s.tab[0], &s.tab[1], &s.tab[2], &s.tab[3]}}
	}
	s, err := NewGMRES(a, b, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Result, error) { res, _, err := s.Run(); return res, err }
	return wiredSolver{s.SetSite, s.DynamicVectors(), run, []*repairTable{&s.tab}}
}

// TestWiringCoversDynamicVectors derives the wiring's coverage from the
// tables themselves: for every solver, with and without preconditioning,
// each vector a fault plan can target has a repair row in one of the
// solver's tables or is declared transient in one, and every row is
// either a page row (try) or a coupled row (member and solve).
func TestWiringCoversDynamicVectors(t *testing.T) {
	a, b := testSystem()
	for _, name := range []string{"cg", "bicgstab", "gmres"} {
		for _, pre := range []bool{false, true} {
			cfg := testConfig(MethodFEIR)
			cfg.UsePrecond = pre
			w := newWired(t, name, a, b, cfg)
			wired := map[*pagemem.Vector]bool{}
			for _, tab := range w.tables {
				for _, r := range tab.rows {
					if (r.try != nil) == (r.solve != nil) || (r.solve != nil) != (r.member != nil) || (r.kind == relCoupled) != (r.solve != nil) {
						t.Errorf("%s precond=%v: row for %s (kind %d) is neither a page row nor a coupled row", name, pre, r.v.V.Name(), r.kind)
					}
					wired[r.v.V] = true
				}
				for _, v := range tab.transient {
					wired[v] = true
				}
			}
			for _, v := range w.dynamic {
				if !wired[v] {
					t.Errorf("%s precond=%v: no table rebuilds %s and none declares it transient", name, pre, v.Name())
				}
			}
		}
	}
}

// TestSingleLossSiteTable loses one x or g page at every fault site of a
// clean solve — each task label of iterations 0 to the clean count, the
// page moving with the iteration — for every solver under FEIR, AFEIR,
// Lossy and Trivial (qa8fm analogue, n = 1000, 64-double pages,
// preconditioned, inline runtime). FEIR, AFEIR and Lossy must converge
// with a nil error and Trivial must never end non-finite. Among the rows
// BiCGStab failed before every phase end was a boundary: an x page lost
// at iteration 4's d task (ErrNonFinite under all four methods) and a g
// page lost at iteration 0's dh task (Lossy restarting to MaxIter).
func TestSingleLossSiteTable(t *testing.T) {
	a := matgen.QA8FMAnalogue(1000)
	b := matgen.Ones(a.N)
	config := func(m Method) Config {
		return Config{Method: m, PageDoubles: 64, UsePrecond: true, Tol: 1e-8, MaxIter: 2000, RT: taskrt.NewInline()}
	}
	type site struct {
		it   int
		task string
	}
	for _, name := range []string{"cg", "bicgstab", "gmres"} {
		clean := newWired(t, name, a, b, config(MethodIdeal))
		var sites []site
		seen := map[site]bool{}
		clean.setSite(func(it int, task string, _ int) {
			if s := (site{it, task}); !seen[s] {
				seen[s] = true
				sites = append(sites, s)
			}
		})
		ref, err := clean.run()
		if err != nil || !ref.Converged {
			t.Fatalf("%s clean: converged=%v err=%v", name, ref.Converged, err)
		}
		fired := 0
		for _, m := range []Method{MethodFEIR, MethodAFEIR, MethodLossy, MethodTrivial} {
			for k, vec := range []string{"g", "x"} {
				for _, st := range sites {
					if st.it > ref.Iterations {
						continue
					}
					w := newWired(t, name, a, b, config(m))
					var v *pagemem.Vector
					for _, dv := range w.dynamic {
						if dv.Name() == vec {
							v = dv
						}
					}
					loss := inject.PlannedError{Vector: v, Page: (2*st.it + 6 + 4*k) % v.Space().NumPages(), AtIteration: st.it, Task: st.task}
					plan := &inject.Plan{Errors: []inject.PlannedError{loss}}
					plan.Start()
					w.setSite(plan.Site)
					res, err := w.run()
					if plan.Fired() == 0 {
						continue
					}
					fired++
					if errors.Is(err, ErrNonFinite) || (m != MethodTrivial && (err != nil || !res.Converged)) {
						t.Errorf("%s %v: loss {Vector:%s Page:%d AtIteration:%d Task:%q}: converged=%v err=%v after %d iterations %+v",
							name, m, vec, loss.Page, loss.AtIteration, loss.Task, res.Converged, err, res.Iterations, res.Stats)
					}
				}
			}
		}
		if fired == 0 {
			t.Fatalf("%s: no loss fired", name)
		}
	}
}
