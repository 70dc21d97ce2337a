package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// The fused-op contract: identical outputs, stamps and missing-partial
// sets as the unfused composition, page by page, including around stale
// and failed pages.

type fusedFixture struct {
	a      *sparse.CSR
	layout sparse.BlockLayout
	rt     *taskrt.Runtime
	e      *Engine
	space  *pagemem.Space
}

func newFusedFixture(t *testing.T, n, page int) *fusedFixture {
	t.Helper()
	a := testMatrix(n)
	layout := sparse.BlockLayout{N: n, BlockSize: page}
	rt := taskrt.New(2)
	t.Cleanup(rt.Close)
	return &fusedFixture{
		a: a, layout: layout, rt: rt,
		e:     New(a, layout, rt, true, 0),
		space: pagemem.NewSpace(n, page),
	}
}

func (f *fusedFixture) vec(name string, fill func(i int) float64) Vec {
	v := Vec{V: f.space.AddVector(name), S: NewStamps(f.e.NP)}
	if fill != nil {
		for i := range v.V.Data {
			v.V.Data[i] = fill(i)
		}
	}
	return v
}

// spmvPage is the unfused guarded SpMV of page p: the guard (every
// connected input page current), then the sparse kernel, then the
// full-overwrite stamp.
func (f *fusedFixture) spmvPage(p, lo, hi int, in, out Operand) {
	if !in.ConnCurrent(f.e.Conn[p], in.Ver, -1) {
		return
	}
	f.a.MulVecRange(in.V.Data, out.V.Data, lo, hi)
	out.V.MarkRecovered(p)
	out.S[p].Store(out.Ver)
}

// partialPage is the unfused guarded reduction of page p: <x, y> when x
// and y (a nil y.V: the reliable w, unguarded) are current.
func partialPage(p, lo, hi int, x, y Operand, w []float64, part *Partial) {
	if !x.Current(p, x.Ver) {
		return
	}
	if y.V != nil {
		if !y.Current(p, y.Ver) {
			return
		}
		w = y.V.Data
	}
	part.Store(p, sparse.DotRange(x.V.Data, w, lo, hi))
}

// samePartials compares two partial sets slot by slot: the same missing
// slots and the same bits in the others.
func samePartials(t *testing.T, what string, u, f *Partial) {
	t.Helper()
	for p := 0; p < u.Len(); p++ {
		if u.Missing(p) != f.Missing(p) {
			t.Fatalf("%s page %d: missing fused=%v unfused=%v", what, p, f.Missing(p), u.Missing(p))
		}
		if !u.Missing(p) && u.Load(p) != f.Load(p) {
			t.Fatalf("%s page %d: fused=%v unfused=%v", what, p, f.Load(p), u.Load(p))
		}
	}
}

// sameVecs compares two vectors' stamps and values.
func sameVecs(t *testing.T, u, f Vec) {
	t.Helper()
	for p := range u.S {
		if u.S[p].Load() != f.S[p].Load() {
			t.Fatalf("page %d: stamp fused=%d unfused=%d", p, f.S[p].Load(), u.S[p].Load())
		}
	}
	for i := range u.V.Data {
		if u.V.Data[i] != f.V.Data[i] {
			t.Fatalf("element %d: fused=%v unfused=%v", i, f.V.Data[i], u.V.Data[i])
		}
	}
}

// TestSpMVDotMatchesUnfused runs SpMVDotPage as one prepared wave and the
// unfused page sequence — the guarded SpMV, then the <x,y> and <y,y>
// reductions, each a wave of its own — from identical states with a stale
// input page, and compares outputs, stamps and partial sets.
func TestSpMVDotMatchesUnfused(t *testing.T) {
	const n, page = 256, 32
	f := newFusedFixture(t, n, page)
	rng := rand.New(rand.NewSource(7))
	fill := func(int) float64 { return rng.NormFloat64() }

	x := f.vec("x", fill)
	yU := f.vec("yU", nil)
	yF := f.vec("yF", nil)
	x.S.Fill(3)
	x.S[5].Store(2) // stale input page
	in, outU, outF := In(x, 3), Operand{Vec: yU, Ver: 3}, Operand{Vec: yF, Ver: 3}

	partXYU, partYYU := NewPartial(f.e.NP), NewPartial(f.e.NP)
	run(wave(f.e, "y=Ax", func(p, lo, hi int) { f.spmvPage(p, lo, hi, in, outU) }))
	run(wave(f.e, "<x,y>", func(p, lo, hi int) { partialPage(p, lo, hi, in, outU, nil, partXYU) }))
	run(wave(f.e, "<y,y>", func(p, lo, hi int) { partialPage(p, lo, hi, outU, outU, nil, partYYU) }))

	partXYF, partYYF := NewPartial(f.e.NP), NewPartial(f.e.NP)
	run(wave(f.e, "y=Ax,<x,y>,<y,y>", func(p, lo, hi int) { f.e.SpMVDotPage(p, lo, hi, in, outF, partXYF, partYYF) }))

	sameVecs(t, yU, yF)
	samePartials(t, "<x,y>", partXYU, partXYF)
	samePartials(t, "<y,y>", partYYU, partYYF)
}

// TestSpMVDotReliableMatchesUnfused compares SpMVDotVecPage against the
// guarded SpMV followed by the <y,w> reduction against a reliable w.
func TestSpMVDotReliableMatchesUnfused(t *testing.T) {
	const n, page = 256, 32
	f := newFusedFixture(t, n, page)
	rng := rand.New(rand.NewSource(8))
	fill := func(int) float64 { return rng.NormFloat64() }

	x := f.vec("x", fill)
	yU := f.vec("yU", nil)
	yF := f.vec("yF", nil)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	x.S.Fill(1)
	x.S[0].Store(0)
	in, outU, outF := In(x, 1), Operand{Vec: yU, Ver: 1}, Operand{Vec: yF, Ver: 1}

	partU := NewPartial(f.e.NP)
	run(wave(f.e, "y=Ax", func(p, lo, hi int) { f.spmvPage(p, lo, hi, in, outU) }))
	run(wave(f.e, "<y,w>", func(p, lo, hi int) { partialPage(p, lo, hi, outU, Operand{}, w, partU) }))

	partF := NewPartial(f.e.NP)
	run(wave(f.e, "y=Ax,<y,w>", func(p, lo, hi int) { f.e.SpMVDotVecPage(p, lo, hi, in, outF, w, partF) }))

	sameVecs(t, yU, yF)
	samePartials(t, "<y,w>", partU, partF)
}

// TestAxpyDotMatchesUnfused compares AxpyDotPage against the unfused
// sequence — the guard (y at Ver-1, x current), the read-modify-write
// axpy that advances the stamp and keeps the fault bit, then the <y,y>
// reduction — including a failed page (late poison): the stamp must
// advance, the fault must stay detected and the partial must stay
// missing.
func TestAxpyDotMatchesUnfused(t *testing.T) {
	const n, page = 256, 32
	f := newFusedFixture(t, n, page)
	rng := rand.New(rand.NewSource(9))
	fill := func(int) float64 { return rng.NormFloat64() }

	x := f.vec("x", fill)
	x.S.Fill(4)
	x.S[2].Store(3) // stale x page: update must skip page 2
	xIn := In(x, 4)

	run1 := func(y Vec, fused bool) *Partial {
		part := NewPartial(f.e.NP)
		y.S.Fill(3)
		y.V.MarkFailed(6) // failed y page: stamp advances, partial missing
		out := Operand{Vec: y, Ver: 4}
		if fused {
			run(wave(f.e, "y+=ax,<y,y>", func(p, lo, hi int) { f.e.AxpyDotPage(p, lo, hi, 0.5, xIn, out, part) }))
			return part
		}
		run(wave(f.e, "y+=ax", func(p, lo, hi int) {
			if !y.Current(p, 3) || !xIn.Current(p, 4) {
				return
			}
			sparse.AxpyRange(0.5, x.V.Data, y.V.Data, lo, hi)
			y.S[p].Store(4)
		}))
		run(wave(f.e, "<y,y>", func(p, lo, hi int) { partialPage(p, lo, hi, out, out, nil, part) }))
		return part
	}

	yU := f.vec("yU", func(i int) float64 { return float64(i % 5) })
	yF := f.vec("yF", func(i int) float64 { return float64(i % 5) })
	partU := run1(yU, false)
	partF := run1(yF, true)

	sameVecs(t, yU, yF)
	samePartials(t, "<y,y>", partU, partF)
	if !yF.V.Failed(6) {
		t.Fatal("fused op cleared a late-poison fault bit")
	}
}

// TestPreparedReplayMatchesImmediate replays a prepared fused graph many
// times and checks it computes the same thing as the same page bodies
// run immediately on the calling goroutine, with zero allocations per
// replay.
func TestPreparedReplayMatchesImmediate(t *testing.T) {
	const n, page = 256, 32
	f := newFusedFixture(t, n, page)
	x := f.vec("x", func(i int) float64 { return float64(i%3) - 1 })
	y := f.vec("y", nil)
	x.S.Fill(0)
	part := NewPartial(f.e.NP)

	var ver int64 // read by the prepared body at run time
	op := f.e.Prepare("y=Ax", 0, func(_, pLo, pHi int) {
		for p := pLo; p < pHi; p++ {
			lo, hi := f.e.Layout.Range(p)
			f.e.SpMVDotPage(p, lo, hi, In(x, ver), Operand{Vec: y, Ver: ver}, part, nil)
		}
	})

	iter := func() {
		part.ResetMissing()
		op.Submit(nil)
		op.Wait()
	}
	iter()
	want, missing := part.SumAvailable()
	if missing != 0 {
		t.Fatalf("missing = %d", missing)
	}

	// Reference: the same pages, immediately on this goroutine.
	partRef := NewPartial(f.e.NP)
	yRef := f.vec("yRef", nil)
	for p := 0; p < f.e.NP; p++ {
		lo, hi := f.e.Layout.Range(p)
		f.e.SpMVDotPage(p, lo, hi, In(x, 0), Operand{Vec: yRef, Ver: 0}, partRef, nil)
	}
	ref, _ := partRef.SumAvailable()
	if want != ref {
		t.Fatalf("prepared sum %v != immediate sum %v", want, ref)
	}

	for i := 0; i < 5; i++ {
		iter() // warm up rings and wait conds
	}
	if allocs := testing.AllocsPerRun(10000, iter); allocs > 0 {
		t.Fatalf("prepared replay allocates %.1f/op, want 0", allocs)
	}
	got, _ := part.SumAvailable()
	if got != want {
		t.Fatalf("replay diverged: %v != %v", got, want)
	}
}
