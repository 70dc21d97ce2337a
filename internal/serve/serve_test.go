package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// newServer builds a server and, at test end, drains it and fails the
// test unless the goroutine count falls back to where it stood before New
// within a bounded wait: a dispatcher, injector or timer callback still
// running after Drain is a leak. The shared task pool is started first;
// its workers live as long as the process.
func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	taskrt.Shared(opts.Workers)
	before := runtime.NumGoroutine()
	srv := New(opts)
	t.Cleanup(func() {
		srv.Drain()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines 5 s after Drain, %d before New", runtime.NumGoroutine(), before)
				return
			}
		}
	})
	return srv
}

// newTestServer is newServer with one registered 900-row Poisson operator
// under the handle "m".
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	srv := newServer(t, opts)
	srv.RegisterMatrix("m", matgen.Poisson2D(30, 30), 64)
	return srv
}

func fastReq() *Request {
	return &Request{Matrix: "m", Solver: "cg", Precond: true, Tol: 1e-10}
}

// slowReq runs until its deadline: an unreachable tolerance with a huge
// iteration budget, cancelled by the per-request timeout.
func slowReq(timeout time.Duration) *Request {
	return &Request{Matrix: "m", Solver: "cg", Tol: 1e-300, MaxIter: 1 << 30, Timeout: timeout}
}

func TestWarmReuseAndCounters(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	for i := 0; i < 3; i++ {
		resp, err := srv.Submit(fastReq())
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !resp.Converged {
			t.Fatalf("solve %d did not converge: %+v", i, resp)
		}
		if i == 0 && resp.Warm {
			t.Fatal("first solve claims a warm instance")
		}
		if i > 0 && !resp.Warm {
			t.Fatalf("solve %d did not reuse the pooled instance", i)
		}
	}
	s := srv.Snapshot()
	if s.Completed != 3 || s.WarmSolves != 2 || s.CacheHits != 3 || s.Failed != 0 {
		t.Fatalf("counters completed=%d warm=%d hits=%d failed=%d, want 3/2/3/0", s.Completed, s.WarmSolves, s.CacheHits, s.Failed)
	}
}

func TestUnknownMatrix(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	if _, err := srv.Submit(&Request{Matrix: "nope"}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("want ErrUnknownMatrix, got %v", err)
	}
}

func TestTimeoutCancelsSolve(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	start := time.Now()
	_, err := srv.Submit(slowReq(100 * time.Millisecond))
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("want core.ErrCancelled, got %v", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("cancellation took %v — deadline not honoured at iteration granularity", e)
	}
	if s := srv.Snapshot(); s.Failed != 1 {
		t.Fatalf("failed=%d, want 1", s.Failed)
	}
}

// waitFor polls a server predicate — admission bookkeeping is internal,
// so tests observe it through Snapshot.
func waitFor(t *testing.T, srv *Server, what string, pred func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred(srv.Snapshot()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: %+v", what, srv.Snapshot())
}

func TestQueueFull(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1, QueueDepth: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only dispatcher until its deadline
		defer wg.Done()
		_, _ = srv.Submit(slowReq(time.Second))
	}()
	waitFor(t, srv, "dispatcher to pick up the slow solve", func(s Stats) bool {
		return s.Accepted == 1 && s.QueueLen == 0
	})
	wg.Add(1)
	go func() { // fills the single queue slot
		defer wg.Done()
		if _, err := srv.Submit(fastReq()); err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}()
	waitFor(t, srv, "queue slot to fill", func(s Stats) bool { return s.QueueLen == 1 })
	if _, err := srv.Submit(fastReq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if s := srv.Snapshot(); s.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", s.Rejected)
	}
	wg.Wait()
}

// TestPriorityDispatchOrder: with one dispatcher busy, a high-priority
// request admitted after a low-priority one must still run first.
func TestPriorityDispatchOrder(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Submit(slowReq(time.Second))
	}()
	waitFor(t, srv, "dispatcher busy", func(s Stats) bool {
		return s.Accepted == 1 && s.QueueLen == 0
	})

	// The low-priority request burns its whole 300ms budget, the
	// high-priority one solves in milliseconds: if the heap dispatches
	// high first, it returns long before low; if FIFO order leaked
	// through, high returns after low's 300ms.
	var lowDone, highDone time.Time
	wg.Add(2)
	go func() {
		defer wg.Done()
		req := slowReq(300 * time.Millisecond)
		req.Priority = -1
		_, _ = srv.Submit(req)
		lowDone = time.Now()
	}()
	waitFor(t, srv, "low queued", func(s Stats) bool { return s.QueueLen == 1 })
	go func() {
		defer wg.Done()
		req := fastReq()
		req.Priority = 3
		if _, err := srv.Submit(req); err != nil {
			t.Errorf("high: %v", err)
		}
		highDone = time.Now()
	}()
	waitFor(t, srv, "high queued", func(s Stats) bool { return s.QueueLen == 2 })
	wg.Wait()
	if !highDone.Before(lowDone) {
		t.Fatalf("high-priority request finished %v after the low-priority one — dispatch ignored priority", highDone.Sub(lowDone))
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	srv := newServer(t, Options{Concurrent: 1})
	srv.RegisterMatrix("m", matgen.Poisson2D(20, 20), 64)
	if _, err := srv.Submit(&Request{Matrix: "m", Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if _, err := srv.Submit(&Request{Matrix: "m"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
}

// TestStormTenantIsolation runs a DUE-storm tenant concurrently with a
// clean tenant against the same cached operator: the storm's plan
// targets only its own request's fault domain, so the clean solve sees
// zero injections and both converge. Under -race this is the gate for
// concurrent solves sharing one context.
//
// Nothing here depends on wall-clock rates: the storm's MTBE is half of
// this host's own clean solve time (the paper's normalized error frequency
// 2, inside the exact-recovery regime whatever the runner's speed or the
// race detector's slowdown), a pair whose storm solve drew no fault is
// repeated so the test cannot pass vacuously.
func TestStormTenantIsolation(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 2})
	srv.RegisterMatrix("grid", matgen.Poisson2D(100, 100), 0)
	clean := &Request{Matrix: "grid", Solver: "cg", Precond: true, Tol: 1e-10, Tenant: "clean"}
	warm, err := srv.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}
	storm := &Request{
		Matrix: "grid", Solver: "cg", Method: "afeir", Precond: true,
		Tol: 1e-10, Tenant: "storm", DUEMTBE: warm.Elapsed / 2,
	}
	for attempt := 1; ; attempt++ {
		storm.Seed = int64(attempt)
		var wg sync.WaitGroup
		var stormResp, cleanResp *Response
		var stormErr, cleanErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			stormResp, stormErr = srv.Submit(storm)
		}()
		go func() {
			defer wg.Done()
			cleanResp, cleanErr = srv.Submit(clean)
		}()
		wg.Wait()
		if stormErr != nil || cleanErr != nil {
			t.Fatalf("storm err=%v clean err=%v", stormErr, cleanErr)
		}
		if !stormResp.Converged || !cleanResp.Converged {
			t.Fatalf("converged: storm=%v (%d faults) clean=%v", stormResp.Converged, stormResp.Injected, cleanResp.Converged)
		}
		if cleanResp.Injected != 0 {
			t.Fatalf("clean tenant saw %d injections — fault domains are not isolated", cleanResp.Injected)
		}
		if stormResp.Injected > 0 {
			return
		}
		if attempt == 100 {
			t.Fatalf("no fault landed in %d storm solves at MTBE %v", attempt, storm.DUEMTBE)
		}
	}
}

// TestStormLeavesWarmInstanceClean: a storm request's losses all land
// inside its own solve, so its injected count is exactly the faults its
// solve saw, and the clean request that takes the same warm instance next
// sees neither an injection nor a fault.
func TestStormLeavesWarmInstanceClean(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	srv.RegisterMatrix("grid", matgen.Poisson2D(100, 100), 0)
	clean := &Request{Matrix: "grid", Solver: "cg", Method: "afeir", Tol: 1e-10}
	warm, err := srv.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}
	storm := *clean
	storm.DUEMTBE = warm.Elapsed / 4
	for attempt := 1; ; attempt++ {
		storm.Seed = int64(attempt)
		stormResp, err := srv.Submit(&storm)
		if err != nil {
			t.Fatal(err)
		}
		if stormResp.Injected != stormResp.Stats.FaultsSeen {
			t.Fatalf("storm fired %d losses, its solve saw %d", stormResp.Injected, stormResp.Stats.FaultsSeen)
		}
		cleanResp, err := srv.Submit(clean)
		if err != nil {
			t.Fatal(err)
		}
		if !cleanResp.Warm || !cleanResp.Converged || cleanResp.Injected != 0 || cleanResp.Stats.FaultsSeen != 0 {
			t.Fatalf("clean request after a storm: warm=%v converged=%v injected=%d %+v",
				cleanResp.Warm, cleanResp.Converged, cleanResp.Injected, cleanResp.Stats)
		}
		if stormResp.Injected > 0 {
			return
		}
		if attempt == 100 {
			t.Fatalf("no fault landed in %d storm solves at MTBE %v", attempt, storm.DUEMTBE)
		}
	}
}

func TestWantSolution(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	resp, err := srv.Submit(&Request{Matrix: "m", Precond: true, Tol: 1e-10, WantSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.X) != 900 {
		t.Fatalf("solution length %d, want 900", len(resp.X))
	}
}

// TestMatrixSubmissionRejectsMalformedCSR: a raw CSR reaches the kernel
// shadows only if it is a well-formed square matrix. Before the check,
// the first body panicked inside the DIA build (the handler goroutine
// died without a response), the second was accepted with its
// out-of-range entry silently dropped by the shadow, the third was
// accepted and broke the DIA/CSR bitwise parity, the fourth panicked in
// makeslice.
func TestMatrixSubmissionRejectsMalformedCSR(t *testing.T) {
	srv := newTestServer(t, Options{})
	h := srv.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rr
	}
	for name, body := range map[string]string{
		"rowptr past the entries": `{"key":"k","n":2,"rowptr":[0,1,5],"cols":[0,1],"vals":[1,1]}`,
		"column out of range":     `{"key":"k","n":2,"rowptr":[0,1,2],"cols":[0,7],"vals":[1,1]}`,
		"unsorted columns":        `{"key":"k","n":2,"rowptr":[0,2,3],"cols":[1,0,1],"vals":[1,2,3]}`,
		"negative n":              `{"key":"k","n":-1,"rowptr":[],"cols":[],"vals":[]}`,
		"rowptr overshoots":       `{"key":"k","n":2,"rowptr":[0,5,2],"cols":[0,1],"vals":[1,1]}`,
	} {
		rr := post("/v1/matrices", body)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), ErrBadMatrix.Error()) {
			t.Errorf("%s: status %d body %q, want 400 with %q", name, rr.Code, rr.Body.String(), ErrBadMatrix)
		}
	}
	if _, err := (&MatrixSubmission{Key: "k", N: 1, RowPtr: []int{0, 1}, Cols: []int{0}, Vals: []float64{math.Inf(1)}}).Build(); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("non-finite value: err = %v, want ErrBadMatrix", err)
	}

	// A well-formed tridiagonal still registers (on the DIA shadow) and solves.
	if rr := post("/v1/matrices", `{"key":"tri","n":3,"rowptr":[0,2,5,7],"cols":[0,1,0,1,2,1,2],"vals":[2,-1,-1,2,-1,-1,2]}`); rr.Code != http.StatusOK {
		t.Fatalf("valid CSR: status %d body %q", rr.Code, rr.Body.String())
	}
	rr := post("/v1/solve", `{"matrix":"tri","tol":1e-12}`)
	var resp Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); rr.Code != http.StatusOK || err != nil || !resp.Converged {
		t.Fatalf("solve on the valid CSR: status %d err %v body %q", rr.Code, err, rr.Body.String())
	}
}

// TestNonFiniteIsUnprocessable: a solve that ends in core.ErrNonFinite is
// answered 422 under that error's name, apart from the 400 of a request
// refused before it ran and the 504 of one that ran out of time.
func TestNonFiniteIsUnprocessable(t *testing.T) {
	for err, want := range map[error]int{
		fmt.Errorf("registry: %w", core.ErrNonFinite): http.StatusUnprocessableEntity,
		core.ErrCancelled: http.StatusGatewayTimeout,
		ErrBadMatrix:      http.StatusBadRequest,
	} {
		if got := statusFor(err); got != want {
			t.Errorf("statusFor(%v) = %d, want %d", err, got, want)
		}
	}
}

// submitAll submits the requests at once and waits for every response.
func submitAll(t *testing.T, srv *Server, reqs []*Request) []*Response {
	t.Helper()
	resps := make([]*Response, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if resps[i], err = srv.Submit(req); err != nil || !resps[i].Converged {
				t.Errorf("request %d: %+v err=%v", i, resps[i], err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return resps
}

// batchOptedMatchSolo submits the batch-opted requests at once, then each
// again without the flag, and fails unless every pair of solutions is
// equal bit for bit and nothing reads as coalesced.
func batchOptedMatchSolo(t *testing.T, srv *Server, batched []*Request) {
	t.Helper()
	got := submitAll(t, srv, batched)
	for i, req := range batched {
		solo := *req
		solo.Batch = false
		want, err := srv.Submit(&solo)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.X) == 0 || len(got[i].X) != len(want.X) {
			t.Fatalf("request %d: solution lengths %d, solo %d", i, len(got[i].X), len(want.X))
		}
		for k := range want.X {
			if math.Float64bits(got[i].X[k]) != math.Float64bits(want.X[k]) {
				t.Fatalf("request %d row %d: batch-opted %v, solo %v", i, k, got[i].X[k], want.X[k])
			}
		}
	}
	if s := srv.Snapshot(); s.BatchesDispatched != 0 || s.RequestsCoalesced != 0 || s.MeanBatchWidth != 0 {
		t.Fatalf("batch occupancy %d/%d/%v, want zeros", s.BatchesDispatched, s.RequestsCoalesced, s.MeanBatchWidth)
	}
}

// TestCoalesceDistinctRHSBitwise: Request.Batch is accepted and ignored.
// Four concurrent batch-opted requests with distinct right-hand sides on
// one operator each return the solution of the same request without the
// flag, bit for bit, nothing reads as coalesced, and the flag is no error
// over HTTP.
func TestCoalesceDistinctRHSBitwise(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 2})
	n := nOf(srv, "m")
	batched := make([]*Request, 4)
	for i := range batched {
		batched[i] = &Request{Matrix: "m", Method: "feir", B: matgen.RandomVector(n, int64(i+1)), Batch: true, WantSolution: true}
	}
	batchOptedMatchSolo(t, srv, batched)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(`{"matrix":"m","method":"feir","batch":true}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf(`"batch":true over HTTP: status %d body %q`, rr.Code, rr.Body.String())
	}
}

// TestCoalesceRespectsEnvelope: the flag changes nothing for any request
// shape. Batch-opted requests that are preconditioned, ask for another
// solver, or for a method a multi-RHS solve could not run each solve as
// the same request without the flag.
func TestCoalesceRespectsEnvelope(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 2})
	batchOptedMatchSolo(t, srv, []*Request{
		{Matrix: "m", Precond: true, Batch: true, WantSolution: true},
		{Matrix: "m", Solver: "bicgstab", Batch: true, WantSolution: true},
		{Matrix: "m", Solver: "gmres", Batch: true, WantSolution: true},
		{Matrix: "m", Method: "lossy", Batch: true, WantSolution: true},
	})
}

// TestCoalescePerColumnTimeout: a batch-opted request's deadline is its
// own. Two batch-opted requests queue together behind a busy dispatcher;
// the one whose deadline passed in the queue is cancelled, the other
// solves to convergence.
func TestCoalescePerColumnTimeout(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Submit(slowReq(200 * time.Millisecond))
	}()
	waitFor(t, srv, "blocker in flight", func(s Stats) bool { return s.Accepted == 1 && s.QueueLen == 0 })

	var okResp, deadResp *Response
	var okErr, deadErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		okResp, okErr = srv.Submit(&Request{Matrix: "m", Method: "feir", Batch: true, Tenant: "a"})
	}()
	go func() {
		defer wg.Done()
		// Expires before the first iteration.
		deadResp, deadErr = srv.Submit(&Request{Matrix: "m", Method: "feir", Batch: true, Tenant: "b", Timeout: time.Nanosecond})
	}()
	waitFor(t, srv, "pair queued", func(s Stats) bool { return s.QueueLen == 2 })
	wg.Wait()

	if !errors.Is(deadErr, core.ErrCancelled) {
		t.Fatalf("expired request: resp=%+v err=%v", deadResp, deadErr)
	}
	if okErr != nil || !okResp.Converged {
		t.Fatalf("surviving request: %+v err=%v", okResp, okErr)
	}
	if s := srv.Snapshot(); s.Failed != 2 { // the blocker and the expired request
		t.Fatalf("failed=%d, want 2", s.Failed)
	}
}

// TestPrewarmPinsZeroRebuilds: Prewarm of a batch-opted request warms the
// solo pool those requests run on, as deep as the dispatchers, so four
// concurrent batch-opted requests after it factorize nothing and prepare
// no task graph.
func TestPrewarmPinsZeroRebuilds(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 2})
	req := &Request{Matrix: "m", Method: "feir", Batch: true}
	if err := srv.Prewarm(req, 2); err != nil {
		t.Fatal(err)
	}
	fac0, prep0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	resps := submitAll(t, srv, []*Request{req, req, req, req})
	for i, resp := range resps {
		if !resp.Warm {
			t.Errorf("request %d after Prewarm is not warm", i)
		}
	}
	if d := sparse.FactorizationCount() - fac0; d != 0 {
		t.Fatalf("%d factorizations after prewarm", d)
	}
	if d := engine.GraphPrepCount() - prep0; d != 0 {
		t.Fatalf("%d graph preparations after prewarm", d)
	}
}
