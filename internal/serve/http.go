package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/sparse"
)

// MatrixSubmission is the wire form of POST /v1/matrices: either a named
// paper-analogue generator ("gen" + "n") or a raw CSR (rowptr/cols/vals).
type MatrixSubmission struct {
	Key         string    `json:"key"`
	Gen         string    `json:"gen,omitempty"`
	N           int       `json:"n,omitempty"`
	RowPtr      []int32   `json:"rowptr,omitempty"`
	Cols        []int32   `json:"cols,omitempty"`
	Vals        []float64 `json:"vals,omitempty"`
	PageDoubles int       `json:"page_doubles,omitempty"`
}

// ErrBadMatrix rejects a submission with n < 1, a generator n whose
// operator could not fit in the operator cache, or a raw CSR that is not
// a well-formed square matrix or is past the int32 index limit
// (sparse.ErrTooLarge); POST /v1/matrices answers it with 400. An index
// past int32 in the body is a 400 from the decoder.
var ErrBadMatrix = errors.New("serve: malformed matrix")

// Build materialises the submitted matrix. cacheBytes is the operator
// cache's cap (Options.CacheBytes, 0 for the default): every row costs at
// least 16 B (a value, a column index, a row pointer), so a generator n
// past cacheBytes/16 is refused before anything is generated. A raw CSR
// is checked before any kernel shadow is built from it: the shadows index
// by its row pointers and columns unchecked, and their bitwise parity
// with the CSR kernels rests on strictly ascending in-row columns.
func (m *MatrixSubmission) Build(cacheBytes int64) (*sparse.CSR, error) {
	if m.Key == "" {
		return nil, fmt.Errorf("serve: matrix submission needs a key")
	}
	if m.N < 1 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadMatrix, m.N)
	}
	if m.Gen != "" {
		if limit := defaults.ServeCacheBytesOr(cacheBytes) / 16; int64(m.N) > limit {
			return nil, fmt.Errorf("%w: n = %d rows cannot fit in the operator cache (at most %d)", ErrBadMatrix, m.N, limit)
		}
		return matgen.PaperMatrix(m.Gen, m.N)
	}
	if err := sparse.CheckSize(m.N, m.N, len(m.Vals)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMatrix, err)
	}
	a := &sparse.CSR{N: m.N, M: m.N, RowPtr: m.RowPtr, Cols: m.Cols, Vals: m.Vals}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMatrix, err)
	}
	if sparse.HasNonFinite(m.Vals) {
		return nil, fmt.Errorf("%w: non-finite value", ErrBadMatrix)
	}
	a.BuildShadows()
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
		a, err := sub.Build(s.opts.CacheBytes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.RegisterMatrix(sub.Key, a, sub.PageDoubles)
		writeJSON(w, http.StatusOK, map[string]any{"key": sub.Key, "n": a.N, "nnz": a.NNZ()})
	})
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Request
			// The wall-clock storm's mean gap, gone with that clock: a
			// client still sending it is told, not served a clean solve.
			OldMTBE json.RawMessage `json:"due_mtbe_ns"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.OldMTBE != nil {
			http.Error(w, "due_mtbe_ns is no longer read: send due_rate, expected DUEs per fault-free solve", http.StatusBadRequest)
			return
		}
		resp, err := s.Submit(&req.Request)
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
	case errors.Is(err, registry.ErrPanicked):
		// A task body panicked: the checkout recovered it on this
		// dispatcher and dropped the instance from the warm pool.
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
