package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// serve-mix: one in-process serve.Server, two closed-loop clients, a
// seeded stream of three request classes over three registered
// operators, each of which selects a different kernel shadow.

const (
	serveClients    = 2
	serveConcurrent = 2
	rhsPool         = 16 // right-hand sides drawn per operator at set-up
	multiWidth      = 4  // requests a multi-rhs operation submits together
)

// reqClass is one request class of the mix.
type reqClass struct {
	name     string
	matrix   string
	method   string
	width    int  // requests one operation submits together and waits for
	batch    bool // the requests opt into coalescing
	perRound int  // operations of this class in every round of a client's stream

	maxIter int // 4x the clean iteration count, fixed at set-up
}

type serveWL struct {
	p       params
	srv     *serve.Server
	mats    map[string]*sparse.CSR
	order   []string // operators in registration order
	rhs     map[string][][]float64
	classes []*reqClass
	snap0   serve.Stats       // counters when measuring started
	pool    taskrt.StateTimes // the pool's clocks over the measured phase
}

func newServeMix(p params) workload {
	return &serveWL{p: p, classes: []*reqClass{
		// 80 / 12 / 8 % of operations: the median lies inside short, the
		// 90th percentile inside multirhs, the 99th inside long.
		{name: "short", matrix: "rspd", method: "ideal", width: 1, perRound: 20},
		{name: "multirhs", matrix: "consph", method: "feir", width: multiWidth, batch: true, perRound: 3},
		{name: "long", matrix: "thermal2", method: "afeir", width: 1, perRound: 2},
	}}
}

func (w *serveWL) tailPct() float64     { return 99 }
func (w *serveWL) primaryClass() string { return "short" }

func (w *serveWL) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
}

func (w *serveWL) setup(tr *tracer) (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	n := w.p.sz.serveN
	w.mats = map[string]*sparse.CSR{}
	w.order = []string{"rspd", "consph", "thermal2"}
	gens := map[string]func() *sparse.CSR{
		"rspd":     func() *sparse.CSR { return matgen.RandomSPD(n, 8, 1.5, 7) }, // SELL
		"consph":   func() *sparse.CSR { return matgen.ConsphAnalogue(n) },       // csr32
		"thermal2": func() *sparse.CSR { return matgen.Thermal2Analogue(n) },     // DIA
	}
	for _, k := range w.order {
		st.gen += tr.call("matgen."+k, -1, -1, func() { w.mats[k] = gens[k]() })
	}
	w.srv = serve.New(serve.Options{
		Concurrent: serveConcurrent, Workers: poolWorkers(),
		CacheBytes: 4 << 30, Timeout: time.Minute,
	})
	for _, k := range w.order {
		var octx *registry.OperatorContext
		st.context += tr.call("serve.RegisterMatrix", -1, -1, func() { octx = w.srv.RegisterMatrix(k, w.mats[k], pageDoubles) })
		st.context += tr.call("registry.Blocks", -1, -1, func() { octx.Blocks(true) })
	}
	w.rhs = map[string][][]float64{}
	for ki, k := range w.order {
		for j := 0; j < rhsPool; j++ {
			w.rhs[k] = append(w.rhs[k], matgen.RandomVector(w.mats[k].N, opSeed(w.p.seed, -1000*(ki+1)-j)))
		}
	}

	// One fault-free request per class under a loose bound fixes its
	// clean iteration count; MaxIter becomes 4x that, then the pools are
	// prewarmed for that final configuration — MaxIter is part of the
	// pool key — as deep as the clients can overlap.
	for _, c := range w.classes {
		c.maxIter = w.mats[c.matrix].N
		probe := w.request(c, 0)
		probe.Batch = false
		var resp *serve.Response
		var err error
		d := tr.call("serve.Submit", -1, -1, func() { resp, err = w.srv.Submit(probe) })
		if err != nil || !resp.Converged {
			return st, fmt.Errorf("class %s clean probe: converged=%v err=%v", c.name, resp != nil && resp.Converged, err)
		}
		if c.name == "short" {
			st.coldCheckout = d - resp.Elapsed
		}
		c.maxIter = 4 * resp.Iterations
		req := w.request(c, 0)
		if err := w.srv.Prewarm(req, serveClients); err != nil {
			return st, fmt.Errorf("prewarm %s: %w", c.name, err)
		}
		if c.batch {
			// A batch-opted request left alone by the window solves solo.
			req.Batch = false
			if err := w.srv.Prewarm(req, serveClients); err != nil {
				return st, fmt.Errorf("prewarm %s solo: %w", c.name, err)
			}
		}
	}
	for i := 0; i < warmups; i++ {
		for _, c := range w.classes {
			if rec := w.op(-1-i, c, i, nil); rec.fail != "" {
				return st, fmt.Errorf("warm-up %s: %s", c.name, rec.fail)
			}
		}
	}
	st.total = time.Since(start)
	return st, nil
}

// request builds the request of a class for right-hand side j.
func (w *serveWL) request(c *reqClass, j int) *serve.Request {
	return &serve.Request{
		Matrix: c.matrix, Solver: "cg", Method: c.method, Tol: tol, MaxIter: c.maxIter,
		B: w.rhs[c.matrix][j%rhsPool], Batch: c.batch, WantSolution: true,
		Timeout: 30 * time.Second,
	}
}

// stream is the seeded sequence of one client: round after round, each a
// fresh shuffle of the same 25 operations (every class perRound times),
// so the shares are exact over any stretch of the run and not a draw.
type stream struct {
	w     *serveWL
	rng   *rand.Rand
	round []*reqClass
	next  int
}

func (w *serveWL) newStream(client int) *stream {
	return &stream{w: w, rng: rand.New(rand.NewSource(opSeed(w.p.seed, -1-client)))}
}

// draw returns the class and right-hand side of the client's next
// operation.
func (s *stream) draw() (*reqClass, int) {
	if s.next == len(s.round) {
		s.round, s.next = s.round[:0], 0
		for _, c := range s.w.classes {
			for k := 0; k < c.perRound; k++ {
				s.round = append(s.round, c)
			}
		}
		s.rng.Shuffle(len(s.round), func(a, b int) { s.round[a], s.round[b] = s.round[b], s.round[a] })
	}
	c := s.round[s.next]
	s.next++
	return c, s.rng.Intn(rhsPool)
}

// op runs one operation: c.width Submits at once, waiting for all of
// them. Every response is verified against its own right-hand side.
func (w *serveWL) op(i int, c *reqClass, j int, tr *tracer) opRecord {
	rec := opRecord{index: i, class: c.name, traced: tr != nil}
	n := c.width
	reqs := make([]*serve.Request, n)
	resps := make([]*serve.Response, n)
	errs := make([]error, n)
	for k := range reqs {
		reqs[k] = w.request(c, j+k)
	}
	rec.start = time.Now()
	root := tr.begin("op."+c.name, i, -1)
	rec.dur = tr.call("serve.Submit", i, root, func() {
		if n == 1 {
			resps[0], errs[0] = w.srv.Submit(reqs[0])
			return
		}
		// The submitters park inside Submit; they are not runnable load.
		var wg sync.WaitGroup
		for k := range reqs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resps[k], errs[k] = w.srv.Submit(reqs[k])
			}(k)
		}
		wg.Wait()
	})
	rec.end = time.Now()
	tr.end(root)
	a := w.mats[c.matrix]
	for k, resp := range resps {
		if errs[k] != nil {
			rec.fail = "submit: " + errs[k].Error()
			return rec
		}
		one := opRecord{iters: resp.Iterations}
		verify(a, reqs[k].B, resp.X, resp.Converged, &one)
		if one.fail != "" {
			rec.fail = one.fail
			return rec
		}
		rec.iters = max(rec.iters, resp.Iterations)
		rec.warm = resp.Warm
		rec.queued, rec.elapsed = max(rec.queued, resp.Queued), max(rec.elapsed, resp.Elapsed)
	}
	return rec
}

func (w *serveWL) measure(seconds float64, tr *tracer, wd *watchdog) []opRecord {
	w.snap0 = w.srv.Snapshot()
	rt := taskrt.Shared(poolWorkers())
	t0 := rt.TotalTimes()
	per := make([][]opRecord, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Client c owns operations c, c+clients, ... and draws them
			// from its own stream: a fixed sequence per client whatever
			// the interleaving.
			st := w.newStream(c)
			for i := c; !wd.expired(); i += serveClients {
				if i >= countOps && time.Since(start).Seconds() >= seconds {
					return
				}
				t := tr
				if (i/serveClients)%2 == 1 {
					t = nil // untraced half of a traced run
				}
				class, j := st.draw()
				per[c] = append(per[c], w.op(i, class, j, t))
			}
		}(c)
	}
	wg.Wait()
	w.pool = subTimes(rt.TotalTimes(), t0)
	var recs []opRecord
	for _, p := range per {
		recs = append(recs, p...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].index < recs[b].index })
	return recs
}

// coalescingReplay replays k multi-rhs operations by one client with and
// without the batch flag, interleaved: the same multiWidth concurrent
// requests on the same right-hand sides either way, so the ratio of the
// median times (solo over coalesced) is what coalescing itself buys
// (above 1) or costs (below 1). It also returns how many requests the
// server accepted on each side, which must be equal.
func (w *serveWL) coalescingReplay(k int) (gain float64, withReqs, soloReqs int64) {
	multi := w.classes[1]
	solo := *multi
	solo.batch = false
	var with, without []float64
	for i := 0; i < k; i++ {
		a0 := w.srv.Snapshot().Accepted
		with = append(with, ms(w.op(comparatorBase+i, multi, i, nil).dur))
		a1 := w.srv.Snapshot().Accepted
		without = append(without, ms(w.op(comparatorBase+i, &solo, i, nil).dur))
		withReqs, soloReqs = withReqs+a1-a0, soloReqs+w.srv.Snapshot().Accepted-a1
	}
	if b := percentile(with, 50); b > 0 {
		gain = percentile(without, 50) / b
	}
	return gain, withReqs, soloReqs
}

func (w *serveWL) layers(m *metricSet, lc *layerCtx) {
	snap := w.srv.Snapshot()
	short := w.classes[0]
	a := w.mats[short.matrix]
	octx, _ := w.srv.Cache().Get(short.matrix)
	blocks := octx.Blocks(true)
	others := []*sparse.CSR{w.mats["consph"], w.mats["thermal2"]}
	bud := probeKernels(m, lc, a, others, blocks, false)
	poolShares(m, w.pool)

	// core: Submit exposes no iteration hook, so iteration time here is
	// the solver's own Elapsed over its iteration count, short class.
	byClass := map[string][]float64{}
	var perIter, fixed, queue, overhead, iters []float64
	warm, batchOpted := 0, 0
	for _, r := range lc.recs {
		if r.fail != "" {
			continue
		}
		byClass[r.class] = append(byClass[r.class], ms(r.dur))
		queue = append(queue, ms(r.queued))
		if r.warm {
			warm++
		}
		switch r.class {
		case "short":
			if r.iters > 0 {
				perIter = append(perIter, us(r.elapsed)/float64(r.iters))
			}
			if r.index < countOps {
				iters = append(iters, float64(r.iters))
			}
			overhead = append(overhead, us(r.dur-r.elapsed-r.queued))
		case "multirhs":
			batchOpted += multiWidth
		}
	}
	iterUS := percentile(perIter, 50)
	for _, r := range lc.recs {
		if r.fail == "" && r.class == "short" {
			fixed = append(fixed, us(r.dur)-float64(r.iters)*iterUS)
		}
	}
	m.set("core.iters_per_solve", mean(iters))
	quiet := percentile(perIter, 10)
	m.set("core.iter_us_p10", quiet)
	m.set("core.iter_us_p50", iterUS)
	m.set("core.iter_us_p99", percentile(perIter, 99))
	m.set("core.fixed_us_per_solve", median(fixed))
	if quiet > 0 {
		m.set("core.iter_unattributed_pct", 100*(1-us(bud.sum(false))/quiet))
	}

	m.set("serve.queue_ms_p50", percentile(queue, 50))
	m.set("serve.queue_ms_p99", percentile(queue, 99))
	m.set("serve.overhead_us_p50", percentile(overhead, 50))
	m.set("serve.short_ms_p50", percentile(byClass["short"], 50))
	m.set("serve.multirhs_ms_p50", percentile(byClass["multirhs"], 50))
	m.set("serve.long_ms_p50", percentile(byClass["long"], 50))
	batches := snap.BatchesDispatched - w.snap0.BatchesDispatched
	coalesced := snap.RequestsCoalesced - w.snap0.RequestsCoalesced
	if batches > 0 {
		m.set("serve.mean_batch_width", float64(coalesced)/float64(batches))
	}
	if batchOpted > 0 {
		m.set("serve.coalesced_share", float64(coalesced)/float64(batchOpted))
	}
	m.set("serve.rejected", float64(snap.Rejected-w.snap0.Rejected))

	var ctxBytes int64
	for _, k := range w.order {
		if c, ok := w.srv.Cache().Get(k); ok {
			ctxBytes += c.SizeBytes()
		}
	}
	m.set("registry.context_mb", float64(ctxBytes)/1e6)
	m.set("registry.warm_share", float64(warm)/float64(len(lc.recs)))
	m.set("registry.cache_hit_rate", snap.CacheHitRate)

	gain, _, _ := w.coalescingReplay(12)
	m.set("serve.coalescing_gain", gain)

	// serve: the short class through the HTTP handler, body encoded and
	// decoded but no socket, minus the same requests through Submit.
	h := w.srv.Handler()
	var viaHTTP, direct []float64
	for i := 0; i < 30; i++ {
		req := w.request(short, i)
		body, _ := json.Marshal(req)
		t := time.Now()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		viaHTTP = append(viaHTTP, us(time.Since(t)))
		if rr.Code != http.StatusOK {
			panic(fmt.Sprintf("benchmark: /v1/solve returned %d: %s", rr.Code, rr.Body.String()))
		}
		direct = append(direct, us(w.op(comparatorBase+i, short, i, nil).dur))
	}
	m.set("serve.http_overhead_us", percentile(viaHTTP, 50)-percentile(direct, 50))

	// registry: a warm checkout of the short class, outside the server.
	b := w.rhs[short.matrix][0]
	cfg := registry.Config{Config: core.Config{Method: core.MethodIdeal, Workers: lc.workers,
		PageDoubles: pageDoubles, Tol: tol, MaxIter: short.maxIter}}
	var checkout []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		co, err := octx.Checkout("cg", b, cfg)
		d := time.Since(t)
		if err != nil {
			panic(err)
		}
		if co.Warm {
			checkout = append(checkout, us(d))
		}
		co.Release()
	}
	m.set("registry.checkout_warm_us", median(checkout))

	// core: BatchCG on the multi-rhs operator at widths 1 and 4 — the
	// width-1 figure is what ROADMAP item 4 sets beside core.iter_us_p50.
	multi := w.classes[1]
	mctx, _ := w.srv.Cache().Get(multi.matrix)
	bcfg := registry.Config{Config: core.Config{Method: core.MethodFEIR, Workers: lc.workers,
		PageDoubles: pageDoubles, Tol: tol, MaxIter: multi.maxIter}}
	batchIter := func(width int) float64 {
		rhs := w.rhs[multi.matrix][:width]
		var xs []float64
		for i := 0; i < 6; i++ {
			co, err := mctx.CheckoutBatch("cg", rhs, width, bcfg)
			if err != nil {
				panic(err)
			}
			res, err := co.S.Run()
			co.Release()
			if err != nil {
				panic(err)
			}
			if i > 0 && res.Iterations > 0 { // the first builds the instance
				xs = append(xs, us(res.Elapsed)/float64(res.Iterations))
			}
		}
		return median(xs)
	}
	m.set("core.batch_w1_iter_us", batchIter(1))
	m.set("core.batch_w4_iter_us_per_col", batchIter(4)/4)

	// solver: the sequential oracle on a short-class system.
	x := make([]float64, a.N)
	ref := timeCall(3, func() {
		for k := range x {
			x[k] = 0
		}
		if _, err := solver.CG(a, b, x, solver.Options{Tol: tol, MaxIter: short.maxIter}); err != nil {
			panic(err)
		}
	})
	m.set("solver.ref_solve_ms", ms(ref))
	if own := percentile(byClass["short"], 50); own > 0 {
		m.set("core.speedup_vs_ref", ms(ref)/own)
	}
}
