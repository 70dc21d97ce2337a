// Package serve is the solve-as-a-service layer: a long-running server
// that accepts solve requests against cached operators and runs them
// concurrently on the process-wide task pool. The production-scale
// pieces the one-shot CLIs lack live here:
//
//   - admission control: a bounded priority queue; a request arriving
//     past the bound is rejected immediately instead of queueing without
//     limit, and higher-priority requests dispatch first (their solver
//     tasks also ride the work-stealing heap at that priority);
//   - operator caching: matrices are registered once and referenced by
//     handle; repeated solves reuse the context's factorizations, warm
//     solver instances and prepared task graphs (registry.Checkout);
//   - per-request deadlines and cancellation via context, polled by the
//     solvers at iteration boundaries;
//   - per-tenant fault domains: every request's instance owns its
//     pagemem spaces, so a DUE storm in one tenant's solve cannot touch
//     another's data — isolation is structural, not scheduled;
//   - graceful drain: shutdown stops admissions, lets queued and
//     in-flight solves finish, and only then releases the pool.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/inject"
	"repro/internal/registry"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// Sentinel admission errors: the HTTP layer maps these to 429/503.
var (
	ErrQueueFull     = errors.New("serve: admission queue full")
	ErrDraining      = errors.New("serve: server is draining")
	ErrUnknownMatrix = errors.New("serve: unknown matrix handle")
	// ErrBadRequest refuses at admission what no solve can answer: rel < tol
	// is never true of a NaN, so it would hold a dispatcher for MaxIter; a
	// solver or method name nothing answers to, or ranks for a solver with
	// no distributed variant, would queue only to fail; a priority past
	// MaxPriority would strand a warm instance set.
	ErrBadRequest = errors.New("serve: bad request")
)

// MaxPriority bounds Request.Priority to [-MaxPriority, MaxPriority]. A
// request's priority is baked into its solver's prepared task graphs, so
// it keys the operator context's warm pool: each distinct value a client
// sends keeps one warm instance set for the context's life. The bound
// holds that to 2·MaxPriority+1 sets per configuration.
const MaxPriority = 8

// Options configures a Server. Zero values resolve through
// internal/defaults (ServeQueueDepth, ServeConcurrent, ServeTimeout,
// ServeCacheBytes).
type Options struct {
	// QueueDepth bounds the admission queue.
	QueueDepth int
	// Concurrent is the number of solves dispatched at once.
	Concurrent int
	// Timeout is the default per-request budget (requests may set a
	// shorter one).
	Timeout time.Duration
	// CacheBytes caps the operator-context cache.
	CacheBytes int64
	// Workers sizes the shared task pool on first use; 0 = GOMAXPROCS.
	Workers int
}

// Request is one solve submission. Matrix references a handle registered
// via RegisterMatrix (or an earlier inline submission).
type Request struct {
	Matrix   string        `json:"matrix"`
	Solver   string        `json:"solver,omitempty"` // registry name; "" = cg
	Method   string        `json:"method,omitempty"` // resilience scheme; "" = ideal
	Precond  bool          `json:"precond,omitempty"`
	Tol      float64       `json:"tol,omitempty"`
	MaxIter  int           `json:"max_iter,omitempty"`
	Ranks    int           `json:"ranks,omitempty"`
	B        []float64     `json:"b,omitempty"` // nil = all-ones RHS
	Priority int           `json:"priority,omitempty"`
	Timeout  time.Duration `json:"timeout_ns,omitempty"`
	// Tenant labels the request for its client; the server reads nothing
	// from it (isolation is per request, see the package doc).
	Tenant string `json:"tenant,omitempty"`
	// DUERate, when positive, runs a DUE storm (an inject.Stream seeded
	// by Seed) against this request's own fault domain, fired by the
	// solve's own tasks: expected DUEs per fault-free solve of this
	// request. Its unit is counted, not timed: the request first solves
	// clean to count its page operations, so a storm costs two solves
	// (Response reports the stormed one; its Queued holds the first).
	DUERate float64 `json:"due_rate,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// WantSolution includes the solution vector in the response.
	WantSolution bool `json:"want_solution,omitempty"`
	// Batch is accepted and ignored: every request solves solo on the
	// warm pool (DESIGN §11 says why there is no batched path).
	Batch bool `json:"batch,omitempty"`
}

// solverName is the registry name the request asks for.
func (r *Request) solverName() string {
	if r.Solver == "" {
		return "cg"
	}
	return r.Solver
}

// Response reports one completed solve.
type Response struct {
	Converged   bool          `json:"converged"`
	Iterations  int           `json:"iterations"`
	RelResidual float64       `json:"rel_residual"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	Queued      time.Duration `json:"queued_ns"`
	Warm        bool          `json:"warm"`
	// Inline: the solve ran whole on its dispatcher's goroutine.
	Inline   bool       `json:"inline,omitempty"`
	Injected int        `json:"injected"`
	Stats    core.Stats `json:"stats"`
	X        []float64  `json:"x,omitempty"`
}

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	NonFinite   int64 `json:"non_finite"` // of Failed, the core.ErrNonFinite (422) ones
	WarmSolves  int64 `json:"warm_solves"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Cached      int   `json:"cached_matrices"`
	CacheBytes  int64 `json:"cache_bytes"`
	QueueLen    int   `json:"queue_len"`
	// CacheHitRate is CacheHits/(CacheHits+CacheMisses); 0 before any
	// lookup.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Batch occupancy always reads 0: no request is coalesced (see
	// Request.Batch). The fields stay for clients that read them.
	BatchesDispatched int64   `json:"batches_dispatched"`
	RequestsCoalesced int64   `json:"requests_coalesced"`
	MeanBatchWidth    float64 `json:"mean_batch_width"`
	// Pool is the shared task pool's scheduler counters since process
	// start: how often its threads slept, were roused, stole, or found
	// work while polling. Inline solves never move them.
	Pool         taskrt.Counters `json:"pool"`
	InlineSolves int64           `json:"inline_solves"`
}

// pending is one queued request plus its completion channel.
type pending struct {
	req      *Request
	enqueued time.Time
	seq      int64
	done     chan outcome
	index    int // heap bookkeeping
}

type outcome struct {
	resp *Response
	err  error
}

// Server runs solves against cached operator contexts. Create with New,
// submit with Submit (safe for concurrent use), stop with Drain.
type Server struct {
	opts  Options
	cache *registry.ContextCache

	mu       sync.Mutex
	cond     *sync.Cond
	queue    pendingHeap
	seq      int64
	draining bool

	inflight sync.WaitGroup
	workers  sync.WaitGroup

	accepted, rejected, completed, failed, nonFinite, warm, inline int64
}

// New builds a server and starts its dispatchers.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts,
		cache: registry.NewContextCache(opts.CacheBytes),
	}
	s.cond = sync.NewCond(&s.mu)
	n := defaults.ServeConcurrentOr(opts.Concurrent)
	s.workers.Add(n)
	for i := 0; i < n; i++ {
		go s.dispatch()
	}
	return s
}

// Cache exposes the operator-context cache (the HTTP layer and tests
// inspect it).
func (s *Server) Cache() *registry.ContextCache { return s.cache }

// RegisterMatrix caches an operator context under the handle and returns
// it. Re-registering a handle replaces the context.
func (s *Server) RegisterMatrix(key string, a *sparse.CSR, pageDoubles int) *registry.OperatorContext {
	return s.cache.Put(key, a, pageDoubles)
}

// Prewarm deterministically fills the warm instance pool for req's
// configuration: count instances are checked out together, each run once
// (the first Run is what builds the prepared task graphs), then released
// as a group. Traffic-based warmup grows the pool only as deep as the
// checkouts that actually overlapped — scheduler luck — so a later burst
// can still pay a construction mid-flight; after Prewarm(req, concurrent)
// it cannot. Prewarm bypasses admission and leaves the serving stats
// untouched.
func (s *Server) Prewarm(req *Request, count int) error {
	octx, ok := s.cache.Get(req.Matrix)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMatrix, req.Matrix)
	}
	cfg, err := s.config(req, octx)
	if err != nil {
		return err
	}
	b := make([]float64, octx.A.N)
	for k := range b {
		b[k] = 1
	}
	cos := make([]*registry.Checkout, 0, count)
	defer func() {
		for _, co := range cos {
			co.Release()
		}
	}()
	for i := 0; i < count; i++ {
		co, err := octx.Checkout(req.solverName(), b, cfg)
		if err != nil {
			return err
		}
		cos = append(cos, co)
		if _, err := co.Instance.Run(); err != nil {
			return err
		}
	}
	return nil
}

// Submit runs one request to completion: admission, queueing, dispatch,
// solve. It blocks until the solve finished, failed, timed out or was
// rejected — concurrency comes from calling Submit on many goroutines
// (one per client), as the HTTP layer does.
func (s *Server) Submit(req *Request) (*Response, error) {
	p := &pending{req: req, enqueued: time.Now(), done: make(chan outcome, 1)}
	err := s.validate(req)
	s.mu.Lock()
	switch {
	case err != nil:
	case s.draining:
		err = ErrDraining
	case s.queue.Len() >= defaults.ServeQueueDepthOr(s.opts.QueueDepth):
		err = ErrQueueFull
	}
	if err != nil {
		s.rejected++
		s.mu.Unlock()
		return nil, err
	}
	s.seq++
	p.seq = s.seq
	s.accepted++
	heap.Push(&s.queue, p)
	s.cond.Signal()
	s.mu.Unlock()

	out := <-p.done
	return out.resp, out.err
}

// validate is the admission check behind ErrBadRequest.
func (s *Server) validate(req *Request) error {
	octx := s.cache.Peek(req.Matrix) // unknown handles are execute's to report
	bb := sparse.Dot(req.B, req.B)   // ε = <g,g> of iteration 0: what rel < tol is computed from
	caps, known := registry.Caps(req.solverName())
	_, methodErr := core.ParseMethod(req.Method)
	switch {
	case !known:
		return fmt.Errorf("%w: unknown solver %q (have %v)", ErrBadRequest, req.Solver, registry.Names())
	case req.Ranks > 0 && !caps.Distributed:
		return fmt.Errorf("%w: solver %q has no distributed variant (drop ranks)", ErrBadRequest, req.solverName())
	case methodErr != nil:
		return fmt.Errorf("%w: %v", ErrBadRequest, methodErr)
	case octx != nil && req.B != nil && len(req.B) != octx.A.N:
		return fmt.Errorf("%w: rhs length %d for n=%d", ErrBadRequest, len(req.B), octx.A.N)
	case math.IsNaN(bb) || math.IsInf(bb, 0):
		return fmt.Errorf("%w: rhs has a non-finite entry or a squared norm that overflows", ErrBadRequest)
	case !(req.Tol >= 0):
		return fmt.Errorf("%w: tol %v", ErrBadRequest, req.Tol)
	case req.MaxIter < 0 || req.Ranks < 0:
		return fmt.Errorf("%w: max_iter %d, ranks %d", ErrBadRequest, req.MaxIter, req.Ranks)
	case req.Priority < -MaxPriority || req.Priority > MaxPriority:
		return fmt.Errorf("%w: priority %d outside [%d, %d]", ErrBadRequest, req.Priority, -MaxPriority, MaxPriority)
	}
	return nil
}

// Drain stops admissions, waits for every queued and in-flight solve to
// finish, and stops the dispatchers. Safe to call once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
	s.inflight.Wait()
}

// Snapshot returns current server counters.
func (s *Server) Snapshot() Stats {
	hits, misses := s.cache.Counters()
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Accepted:     s.accepted,
		Rejected:     s.rejected,
		Completed:    s.completed,
		Failed:       s.failed,
		NonFinite:    s.nonFinite,
		WarmSolves:   s.warm,
		CacheHits:    hits,
		CacheMisses:  misses,
		Cached:       s.cache.Len(),
		CacheBytes:   s.cache.Bytes(),
		QueueLen:     s.queue.Len(),
		CacheHitRate: hitRate,
		// The pool every solve of this server runs on, unless it runs inline.
		Pool:         taskrt.SharedCounters(),
		InlineSolves: s.inline,
	}
}

// dispatch is one worker loop: pop the highest-priority request, run it.
// Draining dispatchers first empty the queue, then exit.
func (s *Server) dispatch() {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.draining {
			s.mu.Unlock()
			return
		}
		p := heap.Pop(&s.queue).(*pending)
		s.inflight.Add(1)
		s.mu.Unlock()

		resp, err := s.execute(p)
		s.mu.Lock()
		if err != nil {
			s.failed++
			if errors.Is(err, core.ErrNonFinite) {
				s.nonFinite++
			}
		} else {
			s.completed++
			if resp.Warm {
				s.warm++
			}
			if resp.Inline {
				s.inline++
			}
		}
		s.mu.Unlock()
		p.done <- outcome{resp: resp, err: err}
		s.inflight.Done()
	}
}

// config is the solve configuration of req against its cached operator:
// the one place a request's fields become a registry.Config, for Prewarm
// and execute alike. The request's priority is its solver tasks' tier, on
// one node and on ranks.
func (s *Server) config(req *Request, octx *registry.OperatorContext) (registry.Config, error) {
	method, err := core.ParseMethod(req.Method)
	return registry.Config{
		Config: core.Config{
			Method:  method,
			Workers: s.opts.Workers,
			// The fault-granularity layout belongs to the cached operator,
			// not the request: a request cannot ask for a different page
			// size without registering the matrix under another handle.
			PageDoubles:  octx.PageDoubles,
			Tol:          req.Tol,
			MaxIter:      req.MaxIter,
			UsePrecond:   req.Precond,
			TaskPriority: req.Priority,
		},
		Ranks: req.Ranks,
	}, err
}

// execute runs one admitted request against its cached operator context.
func (s *Server) execute(p *pending) (*Response, error) {
	req := p.req
	octx, ok := s.cache.Get(req.Matrix)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, req.Matrix)
	}
	cfg, err := s.config(req, octx)
	if err != nil {
		return nil, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = defaults.ServeTimeoutOr(s.opts.Timeout)
	}
	cctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	b := req.B
	if b == nil {
		b = make([]float64, octx.A.N)
		for i := range b {
			b[i] = 1
		}
	} else if len(b) != octx.A.N {
		return nil, fmt.Errorf("serve: rhs length %d for n=%d", len(b), octx.A.N)
	}

	cfg.Cancelled = func() bool { return cctx.Err() != nil }
	// A storm's unit: the page operations of this request solved clean
	// (DESIGN §12), on the warm instance the storm then takes.
	var storm *inject.Plan
	if req.DUERate > 0 {
		unit := &inject.Plan{}
		if _, err := s.run(p, octx, b, cfg, unit); err != nil {
			return nil, err
		}
		seed := req.Seed
		if seed == 0 {
			seed = p.seq
		}
		if mean := float64(unit.Work()) / req.DUERate; mean > 0 {
			storm = &inject.Plan{Stream: &inject.Stream{MeanWork: mean, Seed: seed}}
		}
	}
	return s.run(p, octx, b, cfg, storm)
}

// run checks out an instance for the request, solves it with plan (nil
// for none) armed on its fault sites, and releases it. The plan's stream
// targets this instance's own fault domain and fires from its own tasks,
// so concurrent tenants' solves are untouched and no loss lands after
// Run returns; Release disarms it.
func (s *Server) run(p *pending, octx *registry.OperatorContext, b []float64, cfg registry.Config, plan *inject.Plan) (*Response, error) {
	req := p.req
	co, err := octx.Checkout(req.solverName(), b, cfg)
	if err != nil {
		return nil, err
	}
	defer co.Release()
	if plan != nil {
		co.Instance.Arm(plan)
	}
	res, err := co.Instance.Run()
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Converged:   res.Converged,
		Iterations:  res.Iterations,
		RelResidual: res.RelResidual,
		Elapsed:     res.Elapsed,
		Queued:      time.Since(p.enqueued) - res.Elapsed,
		Warm:        co.Warm,
		Inline:      co.Inline,
		Stats:       res.Stats,
	}
	if plan != nil {
		resp.Injected = plan.Fired()
	}
	if req.WantSolution && co.Instance.Solution != nil {
		resp.X = append([]float64(nil), co.Instance.Solution()...)
	}
	return resp, nil
}

// pendingHeap orders requests by descending priority, FIFO within a
// priority tier — the admission-side mirror of the task heap.
type pendingHeap []*pending

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].req.Priority != h[j].req.Priority {
		return h[i].req.Priority > h[j].req.Priority
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *pendingHeap) Push(x any) {
	p := x.(*pending)
	p.index = len(*h)
	*h = append(*h, p)
}
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
