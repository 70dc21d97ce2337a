package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
)

// TestInlineAndPoolTenantsShareServer drives one server with two
// operators on either side of the registry's size rule, from several
// clients at once: every response says which path it took, the paths never
// cross, Prewarm and Submit agree (a prewarmed request is warm), and
// /v1/stats counts the solves the pool's own counters cannot see (with one
// processor nothing polls or wakes, so those are not asserted on).
func TestInlineAndPoolTenantsShareServer(t *testing.T) {
	srv := newServer(t, Options{Concurrent: 2})
	srv.RegisterMatrix("small", matgen.Thermal2Analogue(2048), 0) // 31 k memory operations: inline
	srv.RegisterMatrix("large", matgen.ConsphAnalogue(4096), 0)   // 537 k: the pool
	reqs := map[string]*Request{
		"small": {Matrix: "small", Method: "afeir", Tol: 1e-8},
		"large": {Matrix: "large", Method: "feir", Tol: 1e-8},
	}
	for _, req := range reqs {
		if err := srv.Prewarm(req, 2); err != nil {
			t.Fatal(err)
		}
	}
	const clients, each = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for name, req := range reqs {
					r := *req
					r.B = matgen.RandomVector(nOf(srv, name), int64(10*c+i))
					resp, err := srv.Submit(&r)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if !resp.Converged || !resp.Warm || resp.Inline != (name == "small") {
						t.Errorf("%s: converged=%v warm=%v inline=%v", name, resp.Converged, resp.Warm, resp.Inline)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	s := srv.Snapshot()
	if s.InlineSolves != clients*each || s.Completed != 2*clients*each || s.Failed != 0 {
		t.Fatalf("inline_solves=%d completed=%d failed=%d, want %d/%d/0", s.InlineSolves, s.Completed, s.Failed, clients*each, 2*clients*each)
	}
}

func nOf(srv *Server, key string) int { return srv.Cache().Peek(key).A.N }

// TestBadRequestRefusedAtAdmission: a request no solve can answer never
// reaches a dispatcher. Before this check one NaN in B held a dispatcher
// for the full 10·n iterations and produced a response JSON cannot encode;
// a solver or method the server does not have, or ranks for a solver with
// no distributed variant, was counted Accepted, waited its turn in the
// queue and failed only at checkout.
func TestBadRequestRefusedAtAdmission(t *testing.T) {
	srv := newTestServer(t, Options{Concurrent: 1})
	n := nOf(srv, "m")
	with := func(edit func(b []float64)) []float64 {
		b := matgen.Ones(n)
		edit(b)
		return b
	}
	cases := map[string]*Request{
		"NaN in b":        {Matrix: "m", B: with(func(b []float64) { b[n/2] = math.NaN() })},
		"Inf in b":        {Matrix: "m", B: with(func(b []float64) { b[0] = math.Inf(-1) })},
		"norm overflows":  {Matrix: "m", B: with(func(b []float64) { b[1], b[2] = 1e308, 1e308 })},
		"wrong length":    {Matrix: "m", B: make([]float64, n-1)},
		"negative tol":    {Matrix: "m", Tol: -1},
		"NaN tol":         {Matrix: "m", Tol: math.NaN()},
		"negative budget": {Matrix: "m", MaxIter: -5},
		"negative ranks":  {Matrix: "m", Ranks: -1},
		"solver pipecg":   {Matrix: "m", Solver: "pipecg", Ranks: 2},
		"solver cacg":     {Matrix: "m", Solver: "cacg", Ranks: 2},
		"solver nope":     {Matrix: "m", Solver: "nope"},
		"ranked bicgstab": {Matrix: "m", Solver: "bicgstab", Ranks: 2},
		"ranked gmres":    {Matrix: "m", Solver: "gmres", Ranks: 2},
		"method exact":    {Matrix: "m", Method: "exact"},
	}
	for name, req := range cases {
		start := time.Now()
		_, err := srv.Submit(req)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want ErrBadRequest", name, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: refused after %v — it reached a solver", name, d)
		}
	}
	if s := srv.Snapshot(); s.Rejected != int64(len(cases)) || s.Accepted != 0 {
		t.Fatalf("rejected=%d accepted=%d, want %d/0", s.Rejected, s.Accepted, len(cases))
	}
	for _, valid := range []*Request{{Solver: "bicgstab"}, {Ranks: 2}} {
		valid.Matrix, valid.B, valid.Tol = "m", matgen.Ones(n), 1e-9
		if resp, err := srv.Submit(valid); err != nil || !resp.Converged {
			t.Fatalf("the valid request (solver %q, ranks %d): %+v, %v", valid.Solver, valid.Ranks, resp, err)
		}
	}
	if s := srv.Snapshot(); s.Completed != 2 || s.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", s.Completed, s.Failed)
	}

	// Over HTTP: 400 with the reason, and a body past the cap is cut off.
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		return rr
	}
	rr := post(srv.Handler(), `{"matrix":"m","b":[1e308,1e308`+strings.Repeat(",1", n-2)+`]}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "squared norm that overflows") {
		t.Fatalf("overflowing rhs over HTTP: %d %q", rr.Code, rr.Body.String())
	}
	rr = post(srv.Handler(), `{"matrix":"m","solver":"pipecg","ranks":2}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `unknown solver "pipecg" (have [bicgstab cg gmres])`) {
		t.Fatalf("unknown solver over HTTP: %d %q", rr.Code, rr.Body.String())
	}
	for _, solver := range []string{"bicgstab", "gmres"} {
		rr = post(srv.Handler(), `{"matrix":"m","solver":"`+solver+`","ranks":2}`)
		if want := fmt.Sprintf("solver %q has no distributed variant", solver); rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), want) {
			t.Fatalf("ranked %s over HTTP: %d %q", solver, rr.Code, rr.Body.String())
		}
	}
	if s := srv.Snapshot(); s.Failed != 0 {
		t.Fatalf("failed=%d after refusals over HTTP, want 0", s.Failed)
	}
	capped := newServer(t, Options{Concurrent: 1, CacheBytes: 512})
	rr = post(capped.Handler(), `{"matrix":"m","b":[1`+strings.Repeat(",1", 600)+`]}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "too large") {
		t.Fatalf("oversized body: %d %q", rr.Code, rr.Body.String())
	}
}
