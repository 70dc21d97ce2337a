// Package engine is the shared task-parallel iteration machinery behind
// every resilient solver in internal/core and the rank-sharded layer in
// internal/dist: strip-mined (chunked) page operations over pagemem
// vectors, prepared once and replayed every iteration (Prepare), whose
// guarded page bodies (fused.go) skip pages whose inputs are stale or
// poisoned (§3.3.2 of the paper), per-page reduction partials
// with missing-contribution tracking, and the two recovery scheduling
// disciplines of §3.3.2 — critical-path (FEIR, Fig 2a) and overlapped at
// low priority (AFEIR, Fig 2b) — on top of internal/taskrt.
//
// Versioning convention (shared by all solvers): a page of a vector is
// "current" at version v when its stamp equals v and its fault bit is
// clear. Tasks that skip a page leave the previous version (and its
// stamp) in place, which is exactly what makes the old-data recoveries of
// §3.1 possible; recovery code reads the stamps to decide which relation
// applies.
package engine

import (
	"sync/atomic"

	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// Stamps holds one version stamp per page. Atomic because overlapped
// (AFEIR) recovery tasks update stamps concurrently with reduction tasks
// reading them.
type Stamps []atomic.Int64

// NewStamps returns stamps for n pages, initialised to -1 (no version).
func NewStamps(n int) Stamps {
	s := make(Stamps, n)
	for i := range s {
		s[i].Store(-1)
	}
	return s
}

// Fill stores ver into every stamp (restart-style recoveries).
func (s Stamps) Fill(ver int64) {
	for i := range s {
		s[i].Store(ver)
	}
}

// Vec couples a protected vector with its version stamps. A nil S means
// the solver tracks validity with fault bits alone (the GMRES Arnoldi
// discipline, which repairs at step boundaries): such a page is current
// exactly when its fault bit is clear.
type Vec struct {
	V *pagemem.Vector
	S Stamps
}

// Current reports whether page p holds version ver with a clear fault bit.
func (v Vec) Current(p int, ver int64) bool {
	if v.S == nil {
		return !v.V.Failed(p)
	}
	return v.S[p].Load() == ver && !v.V.Failed(p)
}

// LateFault reports whether page p was poisoned after being written at
// version ver (stamp current, fault bit set) — the damage AFEIR recovery
// must not touch mid-phase because concurrent reductions may read it.
// Stampless vectors never report late faults.
func (v Vec) LateFault(p int, ver int64) bool {
	if v.S == nil {
		return false
	}
	return v.S[p].Load() == ver && v.V.Failed(p)
}

// ConnCurrent reports whether every listed page is current at ver,
// optionally skipping one page index (pass skip < 0 to check all).
func (v Vec) ConnCurrent(pages []int, ver int64, skip int) bool {
	for _, j := range pages {
		if j == skip {
			continue
		}
		if !v.Current(j, ver) {
			return false
		}
	}
	return true
}

// Operand is a Vec read or written at a specific version by a page
// operation.
type Operand struct {
	Vec
	Ver int64
}

// In builds a read operand at version ver.
func In(v Vec, ver int64) Operand { return Operand{Vec: v, Ver: ver} }

// Sites are one solve's fault sites: the hook an armed fault plan hangs
// on (inject.Plan.Site) and the iteration its coordinator publishes. The
// coordinator opens them for the tasks whose losses a boundary of the
// same Run applies and closes them at that boundary, so no loss outlives
// its Run. The zero value is closed and has no hook.
type Sites struct {
	// Hook, when non-nil, is called with the published iteration, the
	// task's label and the pages the task is about to cover (the work
	// clock's tick, DESIGN §12); set it only while none of the solve's
	// tasks runs.
	Hook func(iteration int, task string, pages int)
	it   atomic.Int64 // published iteration + 1; 0 while closed
}

// Open publishes iteration it and opens the sites.
func (s *Sites) Open(it int) { s.it.Store(int64(it) + 1) }

// Close closes the sites.
func (s *Sites) Close() { s.it.Store(0) }

// Enter is a fault site of a task about to cover pages: the hook fires
// if one is set and the sites are open. A nil *Sites is always closed.
func (s *Sites) Enter(task string, pages int) {
	if s == nil || s.Hook == nil {
		return
	}
	if it := s.it.Load(); it > 0 {
		s.Hook(int(it-1), task, pages)
	}
}

// ChunkRanges splits [0, np) pages into at most nchunks contiguous,
// non-empty [lo, hi) ranges — the strip-mining of Figure 1.
func ChunkRanges(np, nchunks int) [][2]int {
	if nchunks > np {
		nchunks = np
	}
	if nchunks < 1 {
		nchunks = 1
	}
	out := make([][2]int, 0, nchunks)
	for c := 0; c < nchunks; c++ {
		lo := c * np / nchunks
		hi := (c + 1) * np / nchunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// PageConnectivity computes, for every row-page p of the matrix, the
// sorted set of column-pages q such that the block A[rows(p), cols(q)]
// holds at least one nonzero. A strip-mined SpMV task producing rows(p)
// reads exactly the input pages listed in conn[p]; for the paper's
// FEM/stencil matrices this set is small, which is what keeps the blast
// radius of a lost direction page local (§2.3).
func PageConnectivity(a *sparse.CSR, layout sparse.BlockLayout) [][]int {
	np := layout.NumBlocks()
	conn := make([][]int, np)
	seen := make([]int, np) // last row-page that recorded column-page j
	for i := range seen {
		seen[i] = -1
	}
	var buf sparse.RowBuf
	for p := 0; p < np; p++ {
		lo, hi := layout.Range(p)
		for r := lo; r < hi; r++ {
			cols, _ := a.Row(r, &buf)
			for _, c := range cols {
				cp := layout.BlockOf(int(c))
				if seen[cp] != p {
					seen[cp] = p
					conn[p] = append(conn[p], cp)
				}
			}
		}
		sortInts(conn[p])
	}
	return conn
}

func sortInts(s []int) {
	// Insertion sort: connectivity lists are tiny (a handful of pages).
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Engine drives chunked page operations for one solver over one matrix.
type Engine struct {
	RT     *taskrt.Runtime
	A      *sparse.CSR
	Layout sparse.BlockLayout
	NP     int
	// Conn is the page connectivity of A (see PageConnectivity).
	Conn [][]int
	// Resilient enables the stamp/fault guards and stamping; when false
	// every operation runs unconditionally on every page (the Ideal,
	// Trivial, Lossy and Checkpoint methods).
	Resilient bool
	// RecoveryPriority is the task priority for overlapped (AFEIR)
	// recovery. New sets -1; solvers running compute at a non-default
	// tier must lower it via Config.OverlapPriority() so recovery stays
	// strictly below their own compute tasks. Clamped to ≤ -1 at use.
	RecoveryPriority int
	// Sites, when non-nil, are the owning solve's fault sites, entered at
	// the start of every task the engine submits or replays.
	Sites *Sites

	nchunks int
	chunks  [][2]int
}

// New builds an engine. The runtime must outlive the engine; nchunks <= 0
// means one chunk per worker.
func New(a *sparse.CSR, layout sparse.BlockLayout, rt *taskrt.Runtime, resilient bool, nchunks int) *Engine {
	if nchunks <= 0 {
		nchunks = rt.NumWorkers()
	}
	np := layout.NumBlocks()
	return &Engine{
		RT:               rt,
		A:                a,
		Layout:           layout,
		NP:               np,
		Conn:             PageConnectivity(a, layout),
		Resilient:        resilient,
		RecoveryPriority: -1,
		nchunks:          nchunks,
		chunks:           ChunkRanges(np, nchunks),
	}
}

// Chunks returns the strip-mined page ranges used by every operation.
func (e *Engine) Chunks() [][2]int { return e.chunks }

// Sub returns a view of the engine restricted to pages [pLo, pHi), split
// into at most nchunks tasks per operation — the owned shard of one rank
// in the distributed substrate. The view shares the runtime, matrix,
// layout, connectivity and resilience mode with its parent; only the
// chunk set differs, so every page operation of the view touches exactly
// the rank's pages while reading full-length (globally indexed) vectors.
func (e *Engine) Sub(pLo, pHi, nchunks int) *Engine {
	sub := *e
	base := ChunkRanges(pHi-pLo, nchunks)
	sub.chunks = make([][2]int, len(base))
	for i, c := range base {
		sub.chunks[i] = [2]int{c[0] + pLo, c[1] + pLo}
	}
	sub.nchunks = len(sub.chunks)
	return &sub
}

// BlockApplier is the block-diagonal apply-M⁻¹ surface the engine needs
// from a preconditioner: solve M_pp u_p = v_p for one page. Block
// diagonality is what makes the operation a page operation at all — no
// connectivity, so a page application reads exactly one input page, and
// the §3.2 partial-application recovery falls out for free.
// precond.Preconditioner satisfies it.
type BlockApplier interface {
	ApplyBlock(i int, v, u []float64) error
}

// BlockMultiplier is the forward product inverse to BlockApplier:
// u_p = M_pp v_p, used to rebuild a lost unpreconditioned page from its
// surviving preconditioned image. precond.BlockJacobi satisfies it.
type BlockMultiplier interface {
	MulBlock(i int, v, u []float64) error
}

// task is the spec of every task the engine submits or replays: the body
// enters the fault sites with the pages it covers (a chunk its page
// count, a single task 1), then runs.
func (e *Engine) task(label string, after []*taskrt.Handle, priority, pages int, run func(worker int)) taskrt.TaskSpec {
	return taskrt.TaskSpec{Label: label, After: after, Priority: priority, Run: func(w int) {
		e.Sites.Enter(label, pages)
		run(w)
	}}
}

// OverlappedRecovery submits fn as a single low-priority task after the
// given producers — the AFEIR discipline (Fig 2b): it starts only once a
// worker is free, overlapping with whatever reduction tasks still run.
//
//due:recovery
func (e *Engine) OverlappedRecovery(label string, after []*taskrt.Handle, fn func()) *taskrt.Handle {
	prio := e.RecoveryPriority
	if prio > -1 {
		prio = -1
	}
	return e.RT.Submit(e.task(label, after, prio, 1, func(int) { fn() }))
}

// CriticalRecovery runs fn as a task at the solver's compute priority on
// the runtime and waits for it — the FEIR discipline (Fig 2a): recovery in
// the critical path, after every computation of the phase has finished.
func (e *Engine) CriticalRecovery(label string, priority int, fn func()) {
	e.RT.Wait(e.RT.Submit(e.task(label, nil, priority, 1, func(int) { fn() })))
}
