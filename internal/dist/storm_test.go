package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Storm tests for the distributed CG, mirroring
// internal/core/storm_test.go: randomized multi-error campaigns (1–5
// DUEs per run) across ranks and vectors, checking the end-to-end
// invariant — every run converges to the single-node tolerance with a
// verified true residual, with recovery staying rank-local plus halo.

// distInjection schedules one poison: at iteration it, into the vec of
// rank (rank mod ranks), at page offset off within its owned range.
type distInjection struct {
	it   int
	rank int
	vec  string
	off  int
}

func injectOwned(inj []distInjection) func(it int, ranks []*shard.Rank) {
	return func(it int, ranks []*shard.Rank) {
		for _, e := range inj {
			if e.it == it {
				r := ranks[e.rank%len(ranks)]
				p := r.PLo + e.off%(r.PHi-r.PLo)
				r.Space.VectorByName(e.vec).Poison(p)
			}
		}
	}
}

// stormSchedule draws count injections over the given iteration window.
func stormSchedule(rng *rand.Rand, vectors []string, window, count int) []distInjection {
	inj := make([]distInjection, count)
	for i := range inj {
		inj[i] = distInjection{
			it:   1 + rng.Intn(window),
			rank: rng.Intn(8),
			vec:  vectors[rng.Intn(len(vectors))],
			off:  rng.Intn(64),
		}
	}
	return inj
}

// TestDistHaloPageDUE lands DUEs in halo (ghost) pages: pages a rank
// reads but does not own. The exchange discipline must heal them by
// re-import, with zero effect on exactness — the blast radius of §2.3.
func TestDistHaloPageDUE(t *testing.T) {
	a, b := distSystem()
	base, _, err := SolveCG(a, b, 4, baseCfg(core.MethodFEIR))
	if err != nil || !base.Converged {
		t.Fatalf("fault-free: %+v err=%v", base, err)
	}
	res, _, err := injected(func(it int, ranks []*shard.Rank) {
		if it != 12 && it != 30 {
			return
		}
		// Poison the first halo page of every rank that has one, in both
		// the exchanged vector (d) and an on-demand one (x).
		for _, r := range ranks {
			if len(r.Halo) == 0 {
				continue
			}
			if it == 12 {
				r.Space.VectorByName("d").Poison(r.Halo[0])
			} else {
				r.Space.VectorByName("x").Poison(r.Halo[0])
			}
		}
	})(NewCG(a, b, 4, baseCfg(core.MethodFEIR)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("halo DUEs: %+v", res)
	}
	if res.Stats.FaultsSeen == 0 {
		t.Fatal("halo faults never became visible")
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("halo faults should never be unrecoverable: %+v", res.Stats)
	}
	// Ghost damage is invisible to the recurrence: same convergence rate.
	if d := res.Iterations - base.Iterations; d < -2 || d > 2 {
		t.Fatalf("%d iterations vs fault-free %d", res.Iterations, base.Iterations)
	}
}

// TestDistPerRankStats checks the per-rank accounting surfaced to the
// CLI: faults land on specific ranks and are recovered there.
func TestDistPerRankStats(t *testing.T) {
	a, b := distSystem()
	s, err := NewCG(a, b, 4, baseCfg(core.MethodFEIR))
	if err != nil {
		t.Fatal(err)
	}
	s.SetInject(func(it int, ranks []*shard.Rank) {
		if it == 10 {
			r := ranks[2]
			r.Space.VectorByName("x").Poison((r.PLo + r.PHi) / 2)
		}
	})
	res, _, err := s.Run()
	if err != nil || !res.Converged {
		t.Fatalf("%+v err=%v", res, err)
	}
	rs := s.RankStats()
	if len(rs) != 4 {
		t.Fatalf("rank stats for %d ranks", len(rs))
	}
	if rs[2].FaultsSeen != 1 || rs[2].RecoveredInverse == 0 {
		t.Fatalf("rank 2 stats: %+v", rs[2])
	}
	for i, st := range rs {
		if i != 2 && st.FaultsSeen != 0 {
			t.Fatalf("rank %d saw phantom faults: %+v", i, st)
		}
	}
}

// TestDistStormCG: randomized 1–5 DUE campaigns into owned pages of
// x/g/d/q at 4 ranks, exercising the strict-exchange recovery fixpoints,
// FEIR and AFEIR. A storm every page of which was rebuilt exactly (no
// restart) keeps the fault-free convergence rate. x and g lost on one
// owned page leave no relation (§2.4): the page is interpolated.
func TestDistStormCG(t *testing.T) {
	a, b := distSystem()
	probe, _, err := SolveCG(a, b, 4, baseCfg(core.MethodFEIR))
	if err != nil || !probe.Converged {
		t.Fatalf("fault-free run: %+v err=%v", probe, err)
	}
	window := probe.Iterations * 3 / 4
	if window < 2 {
		t.Fatalf("fault-free run too short for a storm: %+v", probe)
	}
	vectors := []string{"x", "g", "d", "q"}
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		name := fmt.Sprintf("%v x+g", method)
		res, _, err := injected(injectOwned([]distInjection{{it: 12, rank: 1, vec: "x", off: 1}, {it: 12, rank: 1, vec: "g", off: 1}}))(NewCG(a, b, 4, baseCfg(method)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecovered(t, name, res)
		if res.Stats.LossyInterpolations < 1 {
			t.Fatalf("%s: the page was not interpolated: %+v", name, res.Stats)
		}
		for rate := 1; rate <= 5; rate++ {
			seed := int64(7000*int(method) + rate)
			res, _, err := injected(injectOwned(stormSchedule(rand.New(rand.NewSource(seed)), vectors, window, rate)))(NewCG(a, b, 4, baseCfg(method)))
			if err != nil {
				t.Fatalf("%v rate %d: %v", method, rate, err)
			}
			name := fmt.Sprintf("%v rate %d", method, rate)
			checkRecovered(t, name, res)
			if res.Stats.Restarts == 0 && res.Iterations > probe.Iterations+2 {
				t.Fatalf("%s: %d iterations without a restart, fault-free %d", name, res.Iterations, probe.Iterations)
			}
		}
	}
}

// TestCGDirectionLoss lands one DUE mid-solve into an owned page of the
// direction d, of q = A d, or of both, on 2 and 4 ranks, FEIR and AFEIR,
// with and without the block-Jacobi preconditioner. A lost q page is
// rewritten by the next SpMV before a read: the solve is bitwise the
// fault-free one. A lost d page is rebuilt from its q page through the
// inverse relation (Table 1, row 1): the convergence rate is kept and no
// restart runs. Both lost on one page leave no relation: the direction
// restarts once with β = 0, counted in Restarts.
func TestCGDirectionLoss(t *testing.T) {
	a, b := distSystem()
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		for _, precond := range []bool{false, true} {
			for _, ranks := range []int{2, 4} {
				cfg := baseCfg(method)
				cfg.UsePrecond = precond
				name := fmt.Sprintf("%v precond=%v ranks=%d", method, precond, ranks)
				base, xBase, err := SolveCG(a, b, ranks, cfg)
				if err != nil || !base.Converged {
					t.Fatalf("%s fault-free: %+v err=%v", name, base, err)
				}
				lose := func(vecs ...string) (core.Result, []float64) {
					var inj []distInjection
					for _, v := range vecs {
						inj = append(inj, distInjection{it: base.Iterations / 2, rank: 1, vec: v, off: 1})
					}
					res, x, err := injected(injectOwned(inj))(NewCG(a, b, ranks, cfg))
					if err != nil {
						t.Fatalf("%s %v: %v", name, vecs, err)
					}
					checkRecovered(t, fmt.Sprintf("%s %v", name, vecs), res)
					return res, x
				}

				res, x := lose("q")
				if res.Iterations != base.Iterations || res.RelResidual != base.RelResidual {
					t.Fatalf("%s q: %d iterations, residual %x; fault-free %d, %x",
						name, res.Iterations, res.RelResidual, base.Iterations, base.RelResidual)
				}
				for i := range x {
					if x[i] != xBase[i] {
						t.Fatalf("%s q: x[%d] = %x, fault-free %x", name, i, x[i], xBase[i])
					}
				}
				if res.Stats.Restarts != 0 {
					t.Fatalf("%s q: %+v", name, res.Stats)
				}

				res, _ = lose("d")
				if d := res.Iterations - base.Iterations; d < -2 || d > 2 {
					t.Fatalf("%s d: %d iterations, fault-free %d", name, res.Iterations, base.Iterations)
				}
				if res.Stats.RecoveredInverse == 0 || res.Stats.Restarts != 0 {
					t.Fatalf("%s d: %+v", name, res.Stats)
				}

				res, _ = lose("d", "q")
				if res.Stats.Restarts != 1 {
					t.Fatalf("%s d+q: %d restarts, want 1: %+v", name, res.Stats.Restarts, res.Stats)
				}
			}
		}
	}
}

// checkRecovered requires a stormed solve to converge to a verified true
// residual with every fault it saw repaired.
func checkRecovered(t *testing.T, name string, res core.Result) {
	t.Helper()
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("%s: %+v", name, res)
	}
	if res.Stats.FaultsSeen == 0 {
		t.Fatalf("%s: no faults seen", name)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%s: %d pages unrecovered: %+v", name, res.Stats.Unrecovered, res.Stats)
	}
}

// midFlightInjection lands count DUEs from the fault site of the SpMV
// superstep, after the halo of d was imported and before the rows of q
// compute: alternating between a ghost page of d and an owned page of q
// on a rotating rank.
func midFlightInjection(s *CG, count int) *int {
	fires := 0
	seen := 0
	s.SetSite(func(_ int, task string, _ int) {
		if task != "q,<d,q>" {
			return
		}
		fires++
		if fires%4 != 0 || seen >= count {
			return
		}
		target := s.sub.Ranks[(fires/4)%len(s.sub.Ranks)]
		if len(target.Halo) == 0 {
			return
		}
		if seen%2 == 0 {
			s.d.Of(target).Poison(target.Halo[0])
		} else {
			s.q.Of(target).Poison(target.PLo)
		}
		seen++
	})
	return &seen
}

// TestCGMidFlightDUEs: DUEs raised while the SpMV superstep is in flight —
// into a freshly imported ghost page of d and into an owned page of q —
// are repaired like any other, for FEIR and AFEIR at 1–5 DUEs, and none
// outlives its Run: nothing is pending and the solve's pool winds down.
func TestCGMidFlightDUEs(t *testing.T) {
	a, b := distSystem()
	for _, method := range []core.Method{core.MethodFEIR, core.MethodAFEIR} {
		for count := 1; count <= 5; count++ {
			name := fmt.Sprintf("%v count %d", method, count)
			goroutines := runtime.NumGoroutine()
			s, err := NewCG(a, b, 4, baseCfg(method))
			if err != nil {
				t.Fatal(err)
			}
			injected := midFlightInjection(s, count)
			res, _, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if *injected != count {
				t.Fatalf("%s: %d mid-flight DUEs landed", name, *injected)
			}
			checkRecovered(t, name, res)
			for i, sp := range s.Spaces() {
				if n := sp.PendingCount(); n != 0 {
					t.Fatalf("%s: rank %d holds %d pending losses after Run", name, i, n)
				}
			}
			// Close does not wait for the pool's workers to exit.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after Run, %d before NewCG", name, runtime.NumGoroutine(), goroutines)
				}
			}
		}
	}
}
