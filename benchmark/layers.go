package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/pagemem"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// Layer probes of a traced run: each times the exported functions of one
// package directly, on the workload's own matrix at the workload's worker
// count, after the measured operations have finished. Bytes are computed
// from array sizes (no cache misses, no write-allocate), so every GB/s
// below is a computed-bytes figure to set against host.triad_gbs from
// the same run.

// pass times one pass of a range kernel: a calibration call sizes the
// inner repeat count so a round lasts about two milliseconds.
func pass(ranges [][2]int, fn func(lo, hi int)) time.Duration {
	once := kernelPass(ranges, 1, fn)
	inner := 1
	if once > 0 {
		inner = int(2 * time.Millisecond / once)
	}
	return kernelPass(ranges, min(max(inner, 1), 2000), fn)
}

// spmvBytes is the computed traffic of one SpMV pass under the named
// shadow: values plus that shadow's index stream, the row pointers of
// the CSR forms, and one read of x and one write of y. DIA stores no
// indices; its padding and SELL's are not visible from outside and are
// left out.
func spmvBytes(a *sparse.CSR, shadow string, width int) float64 {
	nnz, n := float64(a.NNZ()), float64(a.N)
	idx, rowptr := 0.0, 0.0
	switch shadow {
	case "sell":
		idx = 4
	case "csr32":
		idx, rowptr = 4, 4
	case "csr":
		idx, rowptr = 8, 8
	}
	return nnz*(8+idx) + n*rowptr + 16*n*float64(width)
}

// iterBudget holds the standalone kernel passes that make up one CG
// iteration on a matrix; their sum is what an iteration would cost if
// the solver added nothing.
type iterBudget struct {
	spmvDot, xpbyOut, axpy, axpyDot, dot, precond time.Duration
}

func (b iterBudget) sum(usePrecond bool) time.Duration {
	d := b.spmvDot + b.xpbyOut + b.axpy + b.axpyDot
	if usePrecond {
		d += b.precond + b.dot
	}
	return d
}

// probeKernels fills the sparse, precond, engine, taskrt and pagemem
// metrics on matrix a (others lists further operators of the workload,
// for the per-shadow figures) and returns the iteration budget.
func probeKernels(m *metricSet, lc *layerCtx, a *sparse.CSR, others []*sparse.CSR, blocks *sparse.BlockSolverCache, usePrecond bool) iterBudget {
	n := a.N
	ranges := splitRows(n, pageDoubles, lc.workers)
	x, y, z := matgen.RandomVector(n, 1), matgen.RandomVector(n, 2), make([]float64, n)
	var bud iterBudget

	// sparse: SpMV on the selected shadow, plain and fused with its dots.
	shadow := a.ShadowName()
	spmv := pass(ranges, func(lo, hi int) { a.MulVecRange(x, z, lo, hi) })
	bud.spmvDot = pass(ranges, func(lo, hi int) { a.MulVecDotRange(x, z, lo, hi) })
	m.set("sparse.spmv_gbs", gbs(spmvBytes(a, shadow, 1), spmv))
	if lc.triad > 0 {
		m.set("sparse.spmv_frac_of_triad", gbs(spmvBytes(a, shadow, 1), spmv)/lc.triad)
	}
	m.set("sparse.spmv_dot_gbs", gbs(spmvBytes(a, shadow, 1), bud.spmvDot))

	// Per shadow: each operator of the workload on the shadow it selects,
	// then the narrow and wide CSR forms on a clone of a with the better
	// shadows dropped, unless an operator already covers them.
	byShadow := map[string]float64{shadow: gbs(spmvBytes(a, shadow, 1), spmv)}
	measure := func(c *sparse.CSR) {
		s := c.ShadowName()
		if _, done := byShadow[s]; done {
			return
		}
		cx, cz := matgen.RandomVector(c.N, 3), make([]float64, c.N)
		d := pass(splitRows(c.N, pageDoubles, lc.workers), func(lo, hi int) { c.MulVecRange(cx, cz, lo, hi) })
		byShadow[s] = gbs(spmvBytes(c, s, 1), d)
	}
	for _, c := range others {
		measure(c)
	}
	generic := a.Clone()
	generic.DisableShadow("dia")
	generic.DisableShadow("sell")
	measure(generic)
	generic.DisableShadow("int32")
	measure(generic)
	for _, s := range []string{"dia", "csr32", "sell", "csr"} {
		m.set("sparse.spmv_"+s+"_gbs", byShadow[s])
	}

	// sparse: the vector kernels of the recurrence, and SpMM at width 4.
	bud.axpyDot = pass(ranges, func(lo, hi int) { sparse.AxpyDotRange(1e-9, x, y, lo, hi) })
	xpbyNorm := pass(ranges, func(lo, hi int) { sparse.XpbyNormRange(x, 0.5, y, z, lo, hi) })
	bud.xpbyOut = pass(ranges, func(lo, hi int) { sparse.XpbyOutRange(x, 0.5, y, z, lo, hi) })
	bud.axpy = pass(ranges, func(lo, hi int) { sparse.AxpyRange(1e-9, x, y, lo, hi) })
	bud.dot = pass(ranges, func(lo, hi int) { sparse.DotRange(x, y, lo, hi) })
	m.set("sparse.axpy_dot_gbs", gbs(24*float64(n), bud.axpyDot))
	m.set("sparse.xpby_norm_gbs", gbs(24*float64(n), xpbyNorm))
	axpyCk := pass(ranges, func(lo, hi int) { sparse.AxpyChecksumRange(1e-9, x, y, lo, hi) })
	m.set("sparse.abft_axpy_overhead_pct", 100*(float64(axpyCk)/float64(bud.axpy)-1))
	x4, z4 := matgen.RandomVector(4*n, 4), make([]float64, 4*n)
	spmm := pass(ranges, func(lo, hi int) { a.MulMatRange(x4, z4, 4, lo, hi) })
	m.set("sparse.spmm_w4_gbs", gbs(spmvBytes(a, shadow, 4), spmm))

	// sparse: one dense diagonal block, factorised and solved — the unit
	// of both the preconditioner and the inverse recoveries.
	lo, hi := blocks.Layout.Range(0)
	m.set("sparse.block_factor_ms", ms(timeCall(3, func() {
		if _, err := sparse.FactorizeBlock(a.DiagBlock(lo, hi), true); err != nil {
			panic(err)
		}
	})))
	rhs := make([]float64, hi-lo)
	m.set("sparse.block_solve_us", us(timeCall(21, func() {
		copy(rhs, x[lo:hi])
		if err := blocks.SolveDiagBlock(0, rhs); err != nil {
			panic(err)
		}
	})))

	// precond: one block-Jacobi application, blocks split over workers.
	if usePrecond {
		pre, err := precond.FromCache(blocks)
		if err != nil {
			panic(err)
		}
		bud.precond = pass(ranges, func(lo, hi int) {
			for p := lo / pageDoubles; p*pageDoubles < hi; p++ {
				if err := pre.ApplyBlock(p, x, z); err != nil {
					panic(err)
				}
			}
		})
		bs := float64(pageDoubles)
		m.set("precond.apply_us", us(bud.precond))
		// Forward and backward substitution each read one triangle.
		m.set("precond.apply_gbs", gbs(float64(blocks.Layout.NumBlocks())*bs*bs*8+16*float64(n), bud.precond))
	}

	// engine: a prepared SpMV+dot pass, submit to wait, against the same
	// kernel over the same chunks with no scheduler in between.
	pool := taskrt.Shared(lc.workers)
	e := engine.New(a, blocks.Layout, pool, false, 0)
	prep := e.Prepare("probe", 0, func(_, pLo, pHi int) {
		for p := pLo; p < pHi; p++ {
			lo, hi := blocks.Layout.Range(p)
			a.MulVecDotRange(x, z, lo, hi)
		}
	})
	viaEngine := timeCall(101, func() { prep.Submit(nil); prep.Wait() })
	var chunks [][2]int
	for _, c := range e.Chunks() {
		lo, _ := blocks.Layout.Range(c[0])
		_, hi := blocks.Layout.Range(c[1] - 1)
		chunks = append(chunks, [2]int{lo, hi})
	}
	raw := pass(chunks, func(lo, hi int) { a.MulVecDotRange(x, z, lo, hi) })
	m.set("engine.pass_overhead_pct", 100*(float64(viaEngine)/float64(raw)-1))
	empty := e.Prepare("empty", 0, func(_, _, _ int) {})
	m.set("engine.prepared_replay_us", us(timeCall(201, func() { empty.Submit(nil); empty.Wait() })))

	// taskrt: the cost of a task that does nothing, and of one fork-join.
	const ntasks = 64
	hs := make([]*taskrt.Handle, ntasks)
	for i := range hs {
		hs[i] = pool.NewTask(taskrt.TaskSpec{Run: func(int) {}, Label: "noop"})
	}
	m.set("taskrt.empty_task_ns", float64(timeCall(101, func() { pool.ResubmitAll(hs, nil); pool.WaitAll(hs) }))/ntasks)
	m.set("taskrt.parallel_for_us", us(timeCall(101, func() {
		pool.WaitAll(pool.ParallelFor(n, 0, "probe", nil, 0, func(_, _, _ int) {}))
	})))

	// pagemem: the fault path's own costs, on a space of this size.
	space := pagemem.NewSpace(n, pageDoubles)
	v := space.AddVector("v")
	copy(v.Data, x)
	np := space.NumPages()
	burst := min(np, 16)
	var poison, scramble []float64
	for r := 0; r < 21; r++ {
		t := time.Now()
		for p := 0; p < burst; p++ {
			v.Poison(p)
		}
		poison = append(poison, float64(time.Since(t))/float64(burst))
		t = time.Now()
		space.ScramblePending()
		scramble = append(scramble, float64(time.Since(t)))
		space.ClearAll()
	}
	m.set("pagemem.poison_ns", median(poison))
	m.set("pagemem.scramble_pending_us", median(scramble)/1e3)
	v.EnableChecksums()
	for p := 0; p < np; p++ {
		lo, hi := v.PageRange(p)
		v.SetChecksum(p, sparse.ChecksumRange(v.Data, lo, hi))
	}
	m.set("pagemem.verify_checksum_ns", float64(timeCall(21, func() {
		for p := 0; p < np; p++ {
			if !v.VerifyChecksum(p) {
				panic("benchmark: checksum of an untouched page failed")
			}
		}
	}))/float64(np))
	return bud
}

// addTimes and subTimes are the arithmetic taskrt.StateTimes lacks.
func addTimes(a, b taskrt.StateTimes) taskrt.StateTimes {
	return taskrt.StateTimes{Useful: a.Useful + b.Useful, Runtime: a.Runtime + b.Runtime, Idle: a.Idle + b.Idle}
}

func subTimes(a, b taskrt.StateTimes) taskrt.StateTimes {
	return taskrt.StateTimes{Useful: a.Useful - b.Useful, Runtime: a.Runtime - b.Runtime, Idle: a.Idle - b.Idle}
}

// poolShares reports how the task pool's workers spent the measured
// phase: running task bodies, scheduling, or waiting for work.
func poolShares(m *metricSet, t taskrt.StateTimes) {
	if total := float64(t.Total()); total > 0 {
		m.set("taskrt.useful_pct", 100*float64(t.Useful)/total)
		m.set("taskrt.runtime_pct", 100*float64(t.Runtime)/total)
		m.set("taskrt.idle_pct", 100*float64(t.Idle)/total)
	}
}

// iterationMetrics derives the core timing metrics from the iteration
// marks of the traced operations: the gaps between consecutive marks are
// iteration times; what a solve spends outside its iterations is its
// fixed cost; and the share of an iteration the standalone kernel passes
// do not explain is reported, not hidden. The kernel passes are
// quickest-of-n figures, so they are set against the quiet tenth of the
// iterations, not the median.
func iterationMetrics(m *metricSet, recs []opRecord, kernels time.Duration) (quietIterUS float64) {
	var gaps, fixed, iters []float64
	for _, r := range recs {
		if r.fail != "" {
			continue
		}
		if r.index < countOps {
			iters = append(iters, float64(r.iters))
		}
		for k := 1; k < len(r.marks); k++ {
			gaps = append(gaps, float64(r.marks[k]-r.marks[k-1])/1e3)
		}
	}
	iterP50 := percentile(gaps, 50)
	for _, r := range recs {
		if r.fail == "" && len(r.marks) > 1 {
			fixed = append(fixed, us(r.dur)-float64(len(r.marks)-1)*iterP50)
		}
	}
	m.set("core.iters_per_solve", mean(iters))
	quiet := percentile(gaps, 10)
	m.set("core.iter_us_p10", quiet)
	m.set("core.iter_us_p50", iterP50)
	m.set("core.iter_us_p99", percentile(gaps, 99))
	m.set("core.fixed_us_per_solve", median(fixed))
	if quiet > 0 {
		m.set("core.iter_unattributed_pct", 100*(1-us(kernels)/quiet))
	}
	return quiet
}
