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

// TestSpMVDotMatchesUnfused runs the fused SpMV+dot and the unfused
// SpMV-then-DotPartials pipelines from identical states with a stale
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

	// Unfused pipeline.
	partXYU, partYYU := NewPartial(f.e.NP), NewPartial(f.e.NP)
	h := f.e.SpMV("y=Ax", nil, In(x, 3), Operand{Vec: yU, Ver: 3})
	f.rt.WaitAll(h)
	f.rt.WaitAll(f.e.DotPartials("<x,y>", nil, In(x, 3), In(yU, 3), partXYU))
	f.rt.WaitAll(f.e.DotPartials("<y,y>", nil, In(yU, 3), In(yU, 3), partYYU))

	// Fused pipeline.
	partXYF, partYYF := NewPartial(f.e.NP), NewPartial(f.e.NP)
	f.rt.WaitAll(f.e.SpMVDot("y=Ax,<x,y>,<y,y>", nil, In(x, 3), Operand{Vec: yF, Ver: 3}, partXYF, partYYF))

	for p := 0; p < f.e.NP; p++ {
		if yU.S[p].Load() != yF.S[p].Load() {
			t.Fatalf("page %d: stamp fused=%d unfused=%d", p, yF.S[p].Load(), yU.S[p].Load())
		}
		if partXYU.Missing(p) != partXYF.Missing(p) || partYYU.Missing(p) != partYYF.Missing(p) {
			t.Fatalf("page %d: missing sets differ (xy %v/%v, yy %v/%v)", p,
				partXYU.Missing(p), partXYF.Missing(p), partYYU.Missing(p), partYYF.Missing(p))
		}
		if !partXYU.Missing(p) && partXYU.Load(p) != partXYF.Load(p) {
			t.Fatalf("page %d: xy fused=%v unfused=%v", p, partXYF.Load(p), partXYU.Load(p))
		}
		if !partYYU.Missing(p) && partYYU.Load(p) != partYYF.Load(p) {
			t.Fatalf("page %d: yy fused=%v unfused=%v", p, partYYF.Load(p), partYYU.Load(p))
		}
	}
	for i := range yU.V.Data {
		if yU.V.Data[i] != yF.V.Data[i] {
			t.Fatalf("element %d: fused=%v unfused=%v", i, yF.V.Data[i], yU.V.Data[i])
		}
	}
}

// TestSpMVDotReliableMatchesUnfused compares the fused SpMV + reliable
// dot against SpMV followed by DotPartialsReliable.
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

	partU := NewPartial(f.e.NP)
	f.rt.WaitAll(f.e.SpMV("y=Ax", nil, In(x, 1), Operand{Vec: yU, Ver: 1}))
	f.rt.WaitAll(f.e.DotPartialsReliable("<y,w>", nil, In(yU, 1), w, partU))

	partF := NewPartial(f.e.NP)
	f.rt.WaitAll(f.e.SpMVDotReliable("y=Ax,<y,w>", nil, In(x, 1), Operand{Vec: yF, Ver: 1}, w, partF))

	for p := 0; p < f.e.NP; p++ {
		if partU.Missing(p) != partF.Missing(p) {
			t.Fatalf("page %d: missing fused=%v unfused=%v", p, partF.Missing(p), partU.Missing(p))
		}
		if !partU.Missing(p) && partU.Load(p) != partF.Load(p) {
			t.Fatalf("page %d: fused=%v unfused=%v", p, partF.Load(p), partU.Load(p))
		}
	}
}

// TestAxpyDotMatchesUnfused compares the fused RMW axpy + norm against
// PageOp followed by DotPartials, including a failed page (late poison):
// the stamp must advance, the fault must stay detected and the partial
// must stay missing.
func TestAxpyDotMatchesUnfused(t *testing.T) {
	const n, page = 256, 32
	f := newFusedFixture(t, n, page)
	rng := rand.New(rand.NewSource(9))
	fill := func(int) float64 { return rng.NormFloat64() }

	x := f.vec("x", fill)
	x.S.Fill(4)
	x.S[2].Store(3) // stale x page: update must skip page 2

	run := func(y Vec, fused bool) *Partial {
		part := NewPartial(f.e.NP)
		y.S.Fill(3)
		y.V.MarkFailed(6) // failed y page: stamp advances, partial missing
		if fused {
			f.rt.WaitAll(f.e.AxpyDot("y+=ax,<y,y>", nil, 0.5, In(x, 4), Operand{Vec: y, Ver: 4}, part))
			return part
		}
		out := Operand{Vec: y, Ver: 4}
		f.rt.WaitAll(f.e.PageOp("y+=ax", nil, []Operand{In(y, 3), In(x, 4)}, &out, false, func(p, lo, hi int) bool {
			sparse.AxpyRange(0.5, x.V.Data, y.V.Data, lo, hi)
			return true
		}))
		f.rt.WaitAll(f.e.DotPartials("<y,y>", nil, In(y, 4), In(y, 4), part))
		return part
	}

	yU := f.vec("yU", func(i int) float64 { return float64(i % 5) })
	yF := f.vec("yF", func(i int) float64 { return float64(i % 5) })
	partU := run(yU, false)
	partF := run(yF, true)

	for p := 0; p < f.e.NP; p++ {
		if yU.S[p].Load() != yF.S[p].Load() {
			t.Fatalf("page %d: stamp fused=%d unfused=%d", p, yF.S[p].Load(), yU.S[p].Load())
		}
		if partU.Missing(p) != partF.Missing(p) {
			t.Fatalf("page %d: missing fused=%v unfused=%v", p, partF.Missing(p), partU.Missing(p))
		}
		if !partU.Missing(p) && partU.Load(p) != partF.Load(p) {
			t.Fatalf("page %d: partial fused=%v unfused=%v", p, partF.Load(p), partU.Load(p))
		}
	}
	for i := range yU.V.Data {
		if yU.V.Data[i] != yF.V.Data[i] {
			t.Fatalf("element %d: fused=%v unfused=%v", i, yF.V.Data[i], yU.V.Data[i])
		}
	}
	if !yF.V.Failed(6) {
		t.Fatal("fused op cleared a late-poison fault bit")
	}
}

// TestPreparedReplayMatchesImmediate replays a prepared fused graph many
// times and checks it computes the same thing as immediate submissions,
// with zero allocations per replay.
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

	// Reference from the immediate op.
	partRef := NewPartial(f.e.NP)
	yRef := f.vec("yRef", nil)
	f.rt.WaitAll(f.e.SpMVDot("ref", nil, In(x, 0), Operand{Vec: yRef, Ver: 0}, partRef, nil))
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
