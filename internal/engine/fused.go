// Guarded page bodies: each runs one page of a page operation, inside a
// prepared wave's chunk loop, with the version-stamp guards and stamping
// of the FEIR/AFEIR discipline. The fused ones do in ONE pass what the
// unfused sequence did in two (the guarded producer, then the guarded
// reduction over its output), cutting both the task count and the memory
// traffic of the steady-state iteration, with the same semantics:
//
//   - a page runs only when the same input operands the unfused producer
//     checked are current; a skipped page keeps its previous version and
//     its reduction slot stays missing — exactly what the unfused
//     reduction would have decided from the stale stamp;
//   - a produced page is stamped the same way (full-overwrite ops
//     revalidate, read-modify-write ops keep late poisons detected), so
//     the recovery relations of §3.1 apply unchanged, and the recovery
//     tasks' partial back-fill loops (which test Partial.Missing plus
//     page currency) work on fused and unfused partials alike.
//
// The one observable difference is benign: an unfused reduction task ran
// strictly after the producer, so a fault bit raised in the gap made it
// drop a numerically-correct contribution that recovery then recomputed.
// The fused body computes the contribution from the values it just wrote —
// the same values the recovery relation would reproduce.
package engine

import (
	"sync/atomic"

	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// SpMVDotPage is the per-page body of the fused SpMV + dot operation:
// out rows = A·in for page p, the <in,out> partial into xy and the
// <out,out> partial into yy (either may be nil; both nil is the guarded
// SpMV). The row-page runs only when every connected input page is
// current at in.Ver, and the output revalidates at out.Ver.
//
//due:hotpath
func (e *Engine) SpMVDotPage(p, lo, hi int, in, out Operand, xy, yy *Partial) {
	if e.Resilient && !in.ConnCurrent(e.Conn[p], in.Ver, -1) {
		return // output page keeps its OLD values; partials stay missing
	}
	// When only one partial is wanted, the single-dot kernel saves the
	// other reduction's work: <in,out> is <out,w> with w = in, and
	// <out,out> is <out,w> with w = out.
	var sxy, syy float64
	switch {
	case xy != nil && yy == nil:
		sxy = e.A.MulVecDotVecRange(in.V.Data, out.V.Data, in.V.Data, lo, hi)
	case xy == nil && yy != nil:
		syy = e.A.MulVecDotVecRange(in.V.Data, out.V.Data, out.V.Data, lo, hi)
	default:
		sxy, syy = e.A.MulVecDotRange(in.V.Data, out.V.Data, lo, hi)
	}
	if e.Resilient {
		out.V.MarkRecovered(p)
		out.S[p].Store(out.Ver)
		if !in.Current(p, in.Ver) {
			// A row-page whose own column-page is outside its connectivity
			// (no diagonal nonzero): the SpMV was legal but the <in,out>
			// contribution read a stale in page — leave it missing, as the
			// unfused reduction's guard would have.
			if yy != nil {
				yy.Store(p, syy)
			}
			return
		}
	}
	if xy != nil {
		xy.Store(p, sxy)
	}
	if yy != nil {
		yy.Store(p, syy)
	}
}

// SpMVDotVecPage is SpMVDotPage with the <out, y> partial against a
// reliable-memory y (the BiCGStab shadow residual): y needs no guard, and
// the produced page is current whenever the SpMV ran.
//
//due:hotpath
func (e *Engine) SpMVDotVecPage(p, lo, hi int, in, out Operand, y []float64, part *Partial) {
	if e.Resilient && !in.ConnCurrent(e.Conn[p], in.Ver, -1) {
		return
	}
	wy := e.A.MulVecDotVecRange(in.V.Data, out.V.Data, y, lo, hi)
	if e.Resilient {
		out.V.MarkRecovered(p)
		out.S[p].Store(out.Ver)
	}
	part.Store(p, wy)
}

// AxpyDotPage is the per-page body of the fused read-modify-write update
// y += alpha·x (y consumed at y.Ver-1, produced at y.Ver) with the <y, y>
// partial of the updated values. The stamp advances but the fault bit is
// kept, so a poison landing mid-task stays detected, and then the
// contribution is dropped exactly as DotPartialPage's guard would drop it.
//
//due:hotpath
func (e *Engine) AxpyDotPage(p, lo, hi int, alpha float64, x, y Operand, yy *Partial) {
	if e.Resilient && (!x.Current(p, x.Ver) || !y.Current(p, y.Ver-1)) {
		return
	}
	s := sparse.AxpyDotRange(alpha, x.V.Data, y.V.Data, lo, hi)
	if e.Resilient {
		y.S[p].Store(y.Ver)
		if y.V.Failed(p) {
			return // late poison: the contribution stays missing
		}
	}
	yy.Store(p, s)
}

// AxpyDotPageABFT is the checksum-carrying variant of AxpyDotPage: the
// inputs' stored page checksums are verified before the read-modify-
// write runs (a mismatch poisons the corrupt page and skips the update,
// exactly like a stale-input guard), and the checksum of the updated y
// page is folded into the producing pass and stored for the next
// consumer. On clean data the arithmetic is bitwise identical to
// AxpyDotPage.
//
//due:hotpath
func (e *Engine) AxpyDotPageABFT(p, lo, hi int, alpha float64, x, y Operand, yy *Partial) {
	if e.Resilient && (!x.Current(p, x.Ver) || !y.Current(p, y.Ver-1)) {
		return
	}
	if !x.V.VerifyChecksum(p) || !y.V.VerifyChecksum(p) {
		return // SDC caught: skip, the recovery relations take over
	}
	s, ck := sparse.AxpyDotChecksumRange(alpha, x.V.Data, y.V.Data, lo, hi)
	if e.Resilient {
		y.S[p].Store(y.Ver)
		if y.V.Failed(p) {
			return // late poison: the contribution stays missing
		}
	}
	y.V.SetChecksum(p, ck)
	yy.Store(p, s)
}

// ApplyPrecondPage is the per-page body of the guarded apply-M⁻¹
// operation: out_p = M_pp⁻¹ in_p when in is current, a full overwrite, so
// the page revalidates; a skipped page keeps its previous version for the
// partial-application recovery (§3.2) to fill in.
//
//due:hotpath
func (e *Engine) ApplyPrecondPage(p int, m BlockApplier, in, out Operand) {
	if e.Resilient && !in.Current(p, in.Ver) {
		return
	}
	if m.ApplyBlock(p, in.V.Data, out.V.Data) != nil {
		return
	}
	if e.Resilient {
		out.V.MarkRecovered(p)
		out.S[p].Store(out.Ver)
	}
}

// DotPartialPage is the per-page body of the guarded reduction: the <x, y>
// partial of page p, left missing when either operand is stale for the
// recovery tasks to fill later (Figure 1(b)'s r1).
//
//due:hotpath
func (e *Engine) DotPartialPage(p, lo, hi int, x, y Operand, part *Partial) {
	if e.Resilient && (!x.Current(p, x.Ver) || !y.Current(p, y.Ver)) {
		return
	}
	part.Store(p, sparse.DotRange(x.V.Data, y.V.Data, lo, hi))
}

// ---------------------------------------------------------------------
// Prepared (replayed) operations.
// ---------------------------------------------------------------------

// Prepared is a reusable chunked operation: one persistent task handle
// per chunk whose body reads per-iteration state (versions, scalars,
// buffer roles) through the owning solver, so a steady-state iteration
// resubmits the same handles with zero allocations. Dependencies are
// passed at submission; handle slices returned by Handles are stable, so
// cross-op dependency lists can be prebuilt once.
type Prepared struct {
	rt      *taskrt.Runtime
	handles []*taskrt.Handle
}

// graphPreps counts task-graph preparations process-wide.
var graphPreps atomic.Int64

// GraphPrepCount returns the number of prepared ops built so far
// (Prepare + PrepareSingle calls, process-wide). The serving layer's
// zero-rebuild guarantee is pinned against it, and it is a guarantee for
// pooled CG: repeated CG solves on a cached operator context must not
// move the count after warmup. BiCGStab and GMRES are built afresh for
// each request (the registry pools only CG), so each of their requests
// adds every wave and repair task it prepares.
func GraphPrepCount() int64 { return graphPreps.Load() }

// Prepare builds a prepared chunked op running body(worker, pLo, pHi) for
// every chunk of the engine's page range.
func (e *Engine) Prepare(label string, priority int, body func(worker, pLo, pHi int)) *Prepared {
	graphPreps.Add(1)
	p := &Prepared{rt: e.RT, handles: make([]*taskrt.Handle, 0, len(e.chunks))}
	for _, ch := range e.chunks {
		pLo, pHi := ch[0], ch[1]
		p.handles = append(p.handles, e.RT.NewTask(e.task(label, nil, priority, pHi-pLo, func(w int) { body(w, pLo, pHi) })))
	}
	return p
}

// PreparePages is Prepare with a body run on every page p, rows
// [lo, hi), of each chunk.
func (e *Engine) PreparePages(label string, priority int, body func(p, lo, hi int)) *Prepared {
	//due:hotpath
	return e.Prepare(label, priority, func(_, pLo, pHi int) {
		for p := pLo; p < pHi; p++ {
			lo, hi := e.Layout.Range(p)
			body(p, lo, hi)
		}
	})
}

// PrepareSingle builds a prepared single-task op (the per-phase recovery
// tasks: one task, not chunked).
func (e *Engine) PrepareSingle(label string, priority int, body func()) *Prepared {
	graphPreps.Add(1)
	return &Prepared{rt: e.RT, handles: []*taskrt.Handle{e.RT.NewTask(e.task(label, nil, priority, 1, func(int) { body() }))}}
}

// Submit replays every chunk task after the given dependencies and
// returns the persistent handles.
func (p *Prepared) Submit(after []*taskrt.Handle) []*taskrt.Handle {
	p.rt.ResubmitAll(p.handles, after)
	return p.handles
}

// Run replays every chunk task with no dependencies and waits for them.
func (p *Prepared) Run() { p.rt.WaitAll(p.Submit(nil)) }

// Handles returns the persistent task handles (stable across replays).
func (p *Prepared) Handles() []*taskrt.Handle { return p.handles }

// Handles lists the handles of ops, in order (a nil op has none): a
// dependency list built once and replayed with them.
func Handles(ops ...*Prepared) (hs []*taskrt.Handle) {
	for _, op := range ops {
		if op != nil {
			hs = append(hs, op.handles...)
		}
	}
	return hs
}

// Chain replays ops in order, each after the one before (a nil op is
// left out).
func Chain(ops ...*Prepared) {
	var after []*taskrt.Handle
	for _, op := range ops {
		if op != nil {
			after = op.Submit(after)
		}
	}
}

// Wait blocks until the most recent replay of every chunk task finished.
func (p *Prepared) Wait() { p.rt.WaitAll(p.handles) }
