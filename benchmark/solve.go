package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/pagemem"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// The four single-client workloads share one shape: one operator, one
// registry context, and a closed loop of Checkout + Run + Release with a
// fresh right-hand side per operation. They differ in the operator, the
// solver configuration and the fault plan.

type faultKind int

const (
	noFaults faultKind = iota
	// stormFaults: a dense iteration-driven DUE plan on the single-node
	// vectors, mean one page loss per stormMeanIters iterations.
	stormFaults
	// rankFaults: a sparse script through Config.RankInject, mean one
	// page loss per rankMeanIters iterations, a quarter of them on halo
	// pages.
	rankFaults
)

const (
	stormMeanIters = 5
	rankMeanIters  = 100
)

// solveOpts is the part of a solve the comparators of the traced run
// vary; a workload's own operations use its base options.
type solveOpts struct {
	solver  string // registry name
	method  core.Method
	precond bool
	abft    bool
	ranks   int
	faults  faultKind
}

type solveWL struct {
	p      params
	gen    func() *sparse.CSR
	base   solveOpts
	tail   float64
	matrix string // for reports

	a       *sparse.CSR
	ctx     *registry.OperatorContext
	clean   int // iterations of the fault-free warm-up solve
	maxIter int // 4x clean: the explicit bound every measured solve gets
	// lastPool is the pool's cumulative clocks after the previous
	// single-node solve (distributed solves zero the clocks themselves).
	lastPool taskrt.StateTimes
}

func newCGStream(p params) workload {
	g := p.sz.cgGrid
	return &solveWL{p: p, tail: 95, matrix: "poisson3d27",
		gen:  func() *sparse.CSR { return matgen.Poisson3D27(g, g, g) },
		base: solveOpts{solver: "cg", method: core.MethodAFEIR}}
}

func newPCGBlock(p params) workload {
	return &solveWL{p: p, tail: 95, matrix: "thermal2",
		gen:  func() *sparse.CSR { return matgen.Thermal2Analogue(p.sz.pcgN) },
		base: solveOpts{solver: "cg", method: core.MethodFEIR, precond: true}}
}

func newStormExact(p params) workload {
	return &solveWL{p: p, tail: 95, matrix: "thermal2",
		gen:  func() *sparse.CSR { return matgen.Thermal2Analogue(p.sz.stormN) },
		base: solveOpts{solver: "cg", method: core.MethodAFEIR, faults: stormFaults}}
}

func newDistCG(p params) workload {
	return &solveWL{p: p, tail: 95, matrix: "thermal2",
		gen:  func() *sparse.CSR { return matgen.Thermal2Analogue(p.sz.stormN) },
		base: solveOpts{solver: "cg", method: core.MethodFEIR, ranks: 2, faults: rankFaults}}
}

func (w *solveWL) tailPct() float64     { return w.tail }
func (w *solveWL) primaryClass() string { return "" }
func (w *solveWL) close()               {}

// opSeed derives the seed of operation i's inputs (right-hand side,
// fault plan) from the run's seed. Warm-ups use negative i.
func opSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 17 }

func (w *solveWL) setup(tr *tracer) (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	st.gen = tr.call("matgen."+w.matrix, -1, -1, func() { w.a = w.gen() })
	st.context = tr.call("registry.NewOperatorContext", -1, -1, func() {
		w.ctx = registry.NewOperatorContext(w.p.workload, w.a, pageDoubles)
	})
	st.context += tr.call("registry.Blocks", -1, -1, func() { w.ctx.Blocks(true) })

	// The first warm-up is fault-free under a loose bound and fixes the
	// clean iteration count; the bound of every later solve is 4x that,
	// so no solve can run away to the default 10n.
	w.maxIter = w.a.N
	clean := w.base
	clean.faults = noFaults
	rec, _ := w.solve(-1, clean, tr, nil)
	if rec.fail != "" {
		return st, fmt.Errorf("clean warm-up: %s", rec.fail)
	}
	w.clean, w.maxIter = rec.iters, 4*rec.iters
	for i := 0; i < warmups; i++ {
		rec, _ := w.solve(-2-i, w.base, tr, nil)
		if rec.fail != "" {
			return st, fmt.Errorf("warm-up %d: %s", i, rec.fail)
		}
		if i == 0 {
			// The new MaxIter is a new pool key: this checkout builds.
			st.coldCheckout = rec.checkout
		}
	}
	st.total = time.Since(start)
	return st, nil
}

func (w *solveWL) measure(seconds float64, tr *tracer, wd *watchdog) []opRecord {
	var recs []opRecord
	start := time.Now()
	for i := 0; !wd.expired(); i++ {
		if i >= countOps && time.Since(start).Seconds() >= seconds {
			break
		}
		t := tr
		if i%2 == 1 {
			t = nil // the untraced half of a traced run: the overhead comparator
		}
		rec, _ := w.solve(i, w.base, t, wd)
		recs = append(recs, rec)
	}
	return recs
}

// solve runs operation i under the given options: generate the inputs
// from the seed, Checkout, Run, Release (timed; spans and iteration
// marks when tr is non-nil), then verify from outside. It returns the
// record and the solution (valid until the next solve on the same
// pooled instance).
func (w *solveWL) solve(i int, o solveOpts, tr *tracer, wd *watchdog) (opRecord, []float64) {
	rec := opRecord{index: i, traced: tr != nil}
	seed := opSeed(w.p.seed, i)
	b := matgen.RandomVector(w.a.N, seed)

	var plan *inject.Plan
	var script *rankScript
	var marks []int64
	lastIt, calls := -1, 0
	cfg := registry.Config{
		Config: core.Config{
			Method: o.method, Workers: poolWorkers(), PageDoubles: pageDoubles,
			Tol: tol, MaxIter: w.maxIter, UsePrecond: o.precond, ABFT: o.abft,
		},
		Ranks: o.ranks,
	}
	if wd != nil {
		cfg.Cancelled = wd.expired
	}
	if tr != nil {
		marks = make([]int64, 0, w.maxIter+1)
	}
	if tr != nil || o.faults == stormFaults {
		cfg.OnIteration = func(it int, _ float64) {
			if plan != nil {
				plan.Tick(it)
				lastIt, calls = it, calls+1
			}
			if tr != nil {
				marks = append(marks, int64(time.Since(tr.t0)))
			}
		}
	}
	if o.faults == rankFaults {
		script = newRankScript(seed, w.maxIter)
		cfg.RankInject = func(it int, ranks []*shard.Rank) {
			script.tick(it, ranks)
			lastIt, calls = it, calls+1
		}
	}

	rec.start = time.Now()
	root := tr.begin("op", i, -1)
	var co *registry.Checkout
	var res core.Result
	var err error
	rec.checkout = tr.call("registry.Checkout", i, root, func() { co, err = w.ctx.Checkout(o.solver, b, cfg) })
	if err != nil {
		tr.end(root)
		rec.fail = "checkout: " + err.Error()
		return rec, nil
	}
	rec.warm = co.Warm
	if o.faults == stormFaults {
		// Compiled between the timed calls: the plan needs the checked-out
		// instance's vectors, and drawing it is the load generator's cost.
		plan = stormPlan(seed, co.Instance.Dynamic, w.maxIter)
	}
	rec.dur = rec.checkout + tr.call("Instance.Run", i, root, func() { res, err = co.Instance.Run() })
	x := co.Instance.Solution()
	rec.dur += tr.call("Checkout.Release", i, root, co.Release)
	rec.end = time.Now()
	tr.end(root)
	tr.setMarks(i, marks)

	rec.iters, rec.stats, rec.marks = res.Iterations, res.Stats, marks
	// Result.WorkerTimes is the shared pool's running total for a
	// single-node solve, and this solve alone for a distributed one.
	var now taskrt.StateTimes
	for _, t := range res.WorkerTimes {
		now = addTimes(now, t)
	}
	rec.pool = now
	if o.ranks == 0 {
		rec.pool, w.lastPool = subTimes(now, w.lastPool), now
	}
	switch {
	case plan != nil:
		rec.fired = plan.Fired()
		for _, e := range plan.Errors {
			if e.AtIteration <= lastIt {
				rec.planned++
			}
		}
	case script != nil:
		rec.planned, rec.fired = script.due(lastIt), script.fired
	}
	if err != nil {
		rec.fail = "run: " + err.Error()
	} else if o.faults != noFaults && calls < res.Iterations {
		rec.fail = fmt.Sprintf("injection hook called %d times in %d iterations", calls, res.Iterations)
	}
	verify(w.a, b, x, res.Converged, &rec)
	return rec, x
}

// stormPlan compiles the deterministic DUE plan of one storm solve:
// inject.Schedule with exponential gaps of mean stormMeanIters
// iterations over the instance's dynamic vectors, thinned to at most one
// page loss per iteration. That is the regime the paper's exact
// recoveries cover (§2.4: errors on unrelated data); two losses on
// related pages in one iteration have no redundancy relation left, and
// at HEAD such a solve stalls until MaxIter — it would be a failed
// operation by construction, not a measurement.
func stormPlan(seed int64, targets []*pagemem.Vector, maxIter int) *inject.Plan {
	plan := inject.Schedule{
		Phases:  []inject.RatePhase{{MeanIters: stormMeanIters}},
		Seed:    seed,
		Targets: targets,
	}.Compile(maxIter)
	kept := plan.Errors[:0]
	for _, e := range plan.Errors {
		if len(kept) == 0 || kept[len(kept)-1].AtIteration != e.AtIteration {
			kept = append(kept, e)
		}
	}
	plan.Errors = kept
	plan.Start()
	return plan
}

// rankScript is the fault script of one distributed solve, drawn from
// the seed before the solve starts: at most one page loss per
// iteration, exponential gaps of mean rankMeanIters, each on a random
// rank and vector, a quarter of them on a halo page of that rank
// instead of an owned one. Ranks and pages are drawn as fractions and
// mapped onto the substrate's actual layout when they fire.
type rankScript struct {
	entries []rankFault
	next    int
	fired   int
}

type rankFault struct {
	at         int
	rank, page float64 // in [0, 1)
	vec        int
	halo       bool
}

var rankVectors = []string{"x", "g", "d", "q"}

func newRankScript(seed int64, maxIter int) *rankScript {
	rng := rand.New(rand.NewSource(seed))
	s := &rankScript{}
	for at := 1 + int(rng.ExpFloat64()*rankMeanIters); at < maxIter; at += 1 + int(rng.ExpFloat64()*rankMeanIters) {
		s.entries = append(s.entries, rankFault{
			at: at, rank: rng.Float64(), page: rng.Float64(),
			vec: rng.Intn(len(rankVectors)), halo: rng.Intn(4) == 0,
		})
	}
	return s
}

func (s *rankScript) tick(it int, ranks []*shard.Rank) {
	for s.next < len(s.entries) && s.entries[s.next].at <= it {
		e := s.entries[s.next]
		s.next++
		r := ranks[int(e.rank*float64(len(ranks)))]
		p := r.PLo + int(e.page*float64(r.PHi-r.PLo))
		if e.halo && len(r.Halo) > 0 {
			p = r.Halo[int(e.page*float64(len(r.Halo)))]
		}
		r.Space.VectorByName(rankVectors[e.vec]).Poison(p)
		s.fired++
	}
}

// due counts the entries scheduled at or before iteration it.
func (s *rankScript) due(it int) int {
	n := 0
	for _, e := range s.entries {
		if e.at <= it {
			n++
		}
	}
	return n
}
