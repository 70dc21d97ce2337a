package main

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/matgen"
	"repro/internal/precond"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/taskrt"
)

// comparatorBase is the first operation index the comparator solves of a
// traced run draw their inputs from: far past any measured operation, so
// they never reuse a measured right-hand side.
const comparatorBase = 1 << 20

// layers fills the per-layer metrics of a single-client workload.
func (w *solveWL) layers(m *metricSet, lc *layerCtx) {
	blocks := w.ctx.Blocks(true)
	bud := probeKernels(m, lc, w.a, nil, blocks, w.base.precond)
	iterUS := iterationMetrics(m, lc.recs, bud.sum(w.base.precond))
	if w.base.precond && iterUS > 0 {
		m.set("precond.share_of_iter_pct", 100*us(bud.precond)/iterUS)
	}

	// registry: what a checkout costs warm, and how often it was warm;
	// taskrt: where the pool's time went.
	var warmUS []float64
	var pool taskrt.StateTimes
	warm := 0
	for _, r := range lc.recs {
		pool = addTimes(pool, r.pool)
		if r.warm {
			warm++
			warmUS = append(warmUS, us(r.checkout))
		}
	}
	m.set("registry.context_mb", float64(w.ctx.SizeBytes())/1e6)
	m.set("registry.checkout_warm_us", median(warmUS))
	m.set("registry.warm_share", float64(warm)/float64(len(lc.recs)))
	poolShares(m, pool)

	// inject and the recovery counters, over the fixed prefix.
	var planned, fired float64
	var sum core.Stats
	prefix := 0
	for _, r := range lc.recs {
		if r.index < countOps {
			planned += float64(r.planned)
			fired += float64(r.fired)
			sum.Add(r.stats)
			prefix++
		}
	}
	m.set("inject.planned_faults", planned)
	m.set("inject.fired_faults", fired)

	solveMS := func(recs []opRecord) float64 {
		var xs []float64
		for _, r := range recs {
			if r.fail == "" {
				xs = append(xs, ms(r.dur))
			}
		}
		return percentile(xs, 50)
	}
	// compare runs k fault-free or faulted solves per option set,
	// interleaved so drift hits every set alike, after one unmeasured
	// solve each that builds the instance. Same inputs for every set.
	compare := func(k int, sets ...solveOpts) [][]opRecord {
		out := make([][]opRecord, len(sets))
		for _, o := range sets {
			w.solve(comparatorBase-1, o, nil, lc.wd)
		}
		for i := 0; i < k; i++ {
			for s, o := range sets {
				rec, _ := w.solve(comparatorBase+i, o, nil, lc.wd)
				out[s] = append(out[s], rec)
			}
		}
		return out
	}

	// core: Table 2 — what the resilient methods cost when nothing
	// fails, against Ideal on the same operator and topology.
	clean := w.base
	clean.faults = noFaults
	ideal, feir, afeir, abft := clean, clean, clean, clean
	ideal.method, feir.method, afeir.method, abft.method = core.MethodIdeal, core.MethodFEIR, core.MethodAFEIR, core.MethodFEIR
	abft.abft = true
	sets := []solveOpts{ideal, feir, afeir}
	if w.base.ranks == 0 {
		sets = append(sets, abft) // checksum coverage is single-node only
	}
	t2 := compare(4, sets...)
	if base := solveMS(t2[0]); base > 0 {
		m.set("core.clean_overhead_feir_pct", 100*(solveMS(t2[1])/base-1))
		m.set("core.clean_overhead_afeir_pct", 100*(solveMS(t2[2])/base-1))
		if len(t2) > 3 {
			m.set("core.abft_clean_overhead_pct", 100*(solveMS(t2[3])/base-1))
		}
	}

	// solver: the plain sequential oracle on the same system, the
	// single-threaded baseline the task-parallel solve is set against.
	b := matgen.RandomVector(w.a.N, opSeed(w.p.seed, comparatorBase))
	x := make([]float64, w.a.N)
	opts := solver.Options{Tol: tol, MaxIter: w.maxIter}
	ref := timeCall(1, func() {
		var err error
		if w.base.precond {
			var pre *precond.BlockJacobi
			if pre, err = precond.FromCache(blocks); err == nil {
				_, err = solver.PCG(w.a, pre, b, x, opts)
			}
		} else {
			_, err = solver.CG(w.a, b, x, opts)
		}
		if err != nil {
			panic(err)
		}
	})
	m.set("solver.ref_solve_ms", ms(ref))
	// Like for like: the workload's own method, fault-free.
	base := t2[1]
	if w.base.method == core.MethodAFEIR {
		base = t2[2]
	}
	if own := solveMS(base); own > 0 {
		m.set("core.speedup_vs_ref", ms(ref)/own)
	}

	if w.base.precond {
		// precond: the same matrix, tolerance and method without the
		// preconditioner — ROADMAP item 2's like-for-like comparator.
		plain := clean
		plain.precond = false
		saved := w.maxIter
		w.maxIter = w.a.N // unpreconditioned needs more than 4x the PCG count
		un := compare(3, plain)[0]
		w.maxIter = saved
		var its []float64
		for _, r := range un {
			its = append(its, float64(r.iters))
		}
		m.set("precond.unprecond_solve_ms", solveMS(un))
		if w.clean > 0 {
			m.set("precond.iters_ratio", mean(its)/float64(w.clean))
		}
	}
	if w.base.faults == stormFaults {
		w.stormLayers(m, lc, sum, prefix, solveMS)
	}
	if w.base.ranks > 0 {
		w.distLayers(m, lc, compare)
	}
}

// stormLayers reports what the faults of storm-exact cost: the recovery
// counters over the fixed prefix, then for that prefix's inputs the same
// solves fault-free (exactness, extra iterations, time per fault) and
// under FEIR and Lossy with the identical plan.
func (w *solveWL) stormLayers(m *metricSet, lc *layerCtx, sum core.Stats, prefix int, solveMS func([]opRecord) float64) {
	per := func(v int) float64 { return float64(v) / float64(prefix) }
	m.set("core.faults_per_solve", per(sum.FaultsSeen))
	m.set("core.recovered_forward", per(sum.RecoveredForward))
	m.set("core.recovered_inverse", per(sum.RecoveredInverse))
	m.set("core.recovered_coupled", per(sum.RecoveredCoupled))
	m.set("core.contributions_lost", per(sum.ContributionsLost))
	m.set("core.unrecovered", per(sum.Unrecovered))
	m.set("core.restarts", per(sum.Restarts))

	clean, feir, lossy := w.base, w.base, w.base
	clean.faults = noFaults
	feir.method, lossy.method = core.MethodFEIR, core.MethodLossy
	for _, o := range []solveOpts{clean, feir, lossy} {
		w.solve(comparatorBase-1, o, nil, lc.wd)
	}
	var storm, cleanRecs, feirRecs, lossyRecs []opRecord
	var stormIt, cleanIt float64
	exact := 0
	for i := 0; i < prefix; i++ {
		s, x := w.solve(i, w.base, nil, lc.wd)
		xs := append([]float64(nil), x...)
		c, xc := w.solve(i, clean, nil, lc.wd)
		same := len(xs) == len(xc)
		for k := 0; same && k < len(xs); k++ {
			same = xs[k] == xc[k]
		}
		if same {
			exact++
		}
		storm, cleanRecs = append(storm, s), append(cleanRecs, c)
		stormIt, cleanIt = stormIt+float64(s.iters), cleanIt+float64(c.iters)
		f, _ := w.solve(i, feir, nil, lc.wd)
		feirRecs = append(feirRecs, f)
		if i < 2 { // Lossy restarts on every fault: seconds per solve at this rate
			l, _ := w.solve(i, lossy, nil, lc.wd)
			// Lossy may legitimately stop at MaxIter under this plan; its
			// time is reported either way.
			l.fail = ""
			lossyRecs = append(lossyRecs, l)
		}
	}
	m.set("core.exact_share", float64(exact)/float64(prefix))
	if cleanIt > 0 {
		m.set("core.extra_iters_pct", 100*(stormIt/cleanIt-1))
	}
	if f := per(sum.FaultsSeen); f > 0 {
		m.set("core.recovery_us_per_fault", 1e3*(solveMS(storm)-solveMS(cleanRecs))/f)
	}
	m.set("core.storm_feir_solve_ms", solveMS(feirRecs))
	m.set("core.storm_lossy_solve_ms", solveMS(lossyRecs))
}

// distLayers reports the rank-sharded path: what the substrate costs to
// build and per superstep, and the distributed CG variants on the same
// operator and rank count, fault-free.
func (w *solveWL) distLayers(m *metricSet, lc *layerCtx, compare func(int, ...solveOpts) [][]opRecord) {
	ranks := w.base.ranks
	b := matgen.RandomVector(w.a.N, opSeed(w.p.seed, comparatorBase))
	blocks := w.ctx.Blocks(true)
	pool := taskrt.Shared(lc.workers)

	var sub *shard.Substrate
	m.set("shard.build_ms", ms(timeCall(5, func() {
		if sub != nil {
			sub.Close()
		}
		var err error
		sub, err = shard.NewOpts(w.a, b, ranks, pageDoubles, lc.workers, true, shard.Options{RT: pool, Blocks: blocks})
		if err != nil {
			panic(err)
		}
	})))
	defer sub.Close()
	u, v := sub.AddVector("u"), sub.AddVector("v")
	sub.Scatter(b, u)
	sub.Scatter(b, v)
	m.set("shard.exchange_us", us(timeCall(101, func() { sub.Exchange(u, false) })))
	m.set("shard.allreduce_us", us(timeCall(101, func() { sub.Dot("probe", u, v) })))
	halo := 0
	for _, r := range sub.Ranks {
		halo += len(r.Halo)
	}
	// One halo import per iteration (the direction d), computed.
	m.set("shard.halo_bytes_per_iter", float64(halo*pageDoubles*8))

	cfg := dist.Config{Method: w.base.method, Workers: lc.workers, PageDoubles: pageDoubles,
		Tol: tol, MaxIter: w.maxIter, RT: pool, Blocks: blocks}
	var s *dist.CG
	m.set("dist.build_ms", ms(timeCall(5, func() {
		var err error
		if s, err = dist.NewCG(w.a, b, ranks, cfg); err != nil {
			panic(err)
		}
	})))
	if res, _, err := s.Run(); err == nil && res.Iterations > 0 {
		m.set("shard.reductions_per_iter", float64(s.Reductions())/float64(res.Iterations))
	}

	perIter := func(recs []opRecord) float64 {
		var xs []float64
		for _, r := range recs {
			if r.fail == "" && r.iters > 0 {
				xs = append(xs, us(r.dur)/float64(r.iters))
			}
		}
		return median(xs)
	}
	clean := w.base
	clean.faults = noFaults
	r1, pipe, ca := clean, clean, clean
	r1.ranks = 1
	pipe.solver, ca.solver = "pipecg", "cacg"
	out := compare(3, clean, r1, pipe)
	m.set("dist.iter_us", perIter(out[0]))
	m.set("dist.r1_iter_us", perIter(out[1]))
	m.set("dist.pipecg_iter_us", perIter(out[2]))
	// The s-step variant takes several times longer per solve here: one.
	rec, _ := w.solve(comparatorBase, ca, nil, lc.wd)
	m.set("dist.cacg_iter_us", perIter([]opRecord{rec}))
}
