package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// MatrixSubmission is the wire form of POST /v1/matrices: either a named
// paper-analogue generator ("gen" + "n") or a raw CSR (rowptr/cols/vals).
type MatrixSubmission struct {
	Key         string    `json:"key"`
	Gen         string    `json:"gen,omitempty"`
	N           int       `json:"n,omitempty"`
	RowPtr      []int     `json:"rowptr,omitempty"`
	Cols        []int     `json:"cols,omitempty"`
	Vals        []float64 `json:"vals,omitempty"`
	PageDoubles int       `json:"page_doubles,omitempty"`
}

// ErrBadMatrix rejects a raw CSR submission that is not a well-formed
// square matrix; POST /v1/matrices answers it with 400.
var ErrBadMatrix = errors.New("serve: malformed matrix")

// Build materialises the submitted matrix. A raw CSR is checked before
// any kernel shadow is built from it: the shadows index by its row
// pointers and columns unchecked, and their bitwise parity with the CSR
// kernels rests on strictly ascending in-row columns.
func (m *MatrixSubmission) Build() (*sparse.CSR, error) {
	if m.Key == "" {
		return nil, fmt.Errorf("serve: matrix submission needs a key")
	}
	if m.Gen != "" {
		return matgen.PaperMatrix(m.Gen, m.N)
	}
	if m.N <= 0 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadMatrix, m.N)
	}
	a := &sparse.CSR{N: m.N, M: m.N, RowPtr: m.RowPtr, Cols: m.Cols, Vals: m.Vals}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMatrix, err)
	}
	if sparse.HasNonFinite(m.Vals) {
		return nil, fmt.Errorf("%w: non-finite value", ErrBadMatrix)
	}
	a.BuildIndex32()
	return a, nil
}

// Handler returns the JSON API:
//
//	POST /v1/matrices  register a matrix (generator spec or raw CSR)
//	POST /v1/solve     run one solve request (blocks until done)
//	GET  /v1/stats     server counters
func (s *Server) Handler() http.Handler {
	// A body larger than the whole operator cache describes nothing the
	// server could keep; JSON text is the larger of the two forms.
	maxBody := defaults.ServeCacheBytesOr(s.opts.CacheBytes)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/matrices", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var sub MatrixSubmission
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&sub); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a, err := sub.Build()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.RegisterMatrix(sub.Key, a, sub.PageDoubles)
		writeJSON(w, http.StatusOK, map[string]any{"key": sub.Key, "n": a.N, "nnz": len(a.Vals)})
	})
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.Submit(&req)
		if err != nil {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	return mux
}

// statusFor maps solve errors onto admission-aware HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownMatrix):
		return http.StatusNotFound
	case errors.Is(err, core.ErrCancelled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNonFinite):
		// The request was well formed and the solve ran: its iterate
		// went non-finite, which no retry of the same request changes.
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
