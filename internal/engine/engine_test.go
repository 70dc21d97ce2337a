package engine

import (
	"testing"

	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

func TestPartial(t *testing.T) {
	af := NewPartial(3)
	if !af.Missing(0) || !af.Missing(2) {
		t.Fatal("slots not missing after reset")
	}
	af.Store(1, 2.5)
	if af.Missing(1) || af.Load(1) != 2.5 {
		t.Fatal("store/load broken")
	}
	sum, missing := af.SumAvailable()
	if sum != 2.5 || missing != 2 {
		t.Fatalf("sum=%v missing=%d", sum, missing)
	}
	if af.Len() != 3 {
		t.Fatal("len wrong")
	}
}

func TestChunkRanges(t *testing.T) {
	chunks := ChunkRanges(10, 3)
	if len(chunks) != 3 || chunks[0][0] != 0 || chunks[2][1] != 10 {
		t.Fatalf("chunks = %v", chunks)
	}
	total := 0
	for _, c := range chunks {
		total += c[1] - c[0]
	}
	if total != 10 {
		t.Fatalf("chunks do not cover: %v", chunks)
	}
	if got := ChunkRanges(2, 8); len(got) != 2 {
		t.Fatalf("more chunks than pages: %v", got)
	}
	if got := ChunkRanges(4, 0); len(got) != 1 {
		t.Fatalf("zero chunks: %v", got)
	}
}

func testMatrix(n int) *sparse.CSR {
	var tr []sparse.Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, sparse.Triplet{Row: i, Col: i, Val: 4})
		if i > 0 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			tr = append(tr, sparse.Triplet{Row: i, Col: i + 1, Val: -1})
		}
	}
	return sparse.NewCSRFromTriplets(n, n, tr)
}

// wave prepares a chunked op running body on every page of the engine.
func wave(e *Engine, label string, body func(p, lo, hi int)) *Prepared {
	return e.Prepare(label, 0, func(_, pLo, pHi int) {
		for p := pLo; p < pHi; p++ {
			lo, hi := e.Layout.Range(p)
			body(p, lo, hi)
		}
	})
}

// run replays a prepared op and waits for it.
func run(op *Prepared) {
	op.Submit(nil)
	op.Wait()
}

// copyBlocks is the identity block apply, u_p = v_p.
type copyBlocks sparse.BlockLayout

func (c copyBlocks) ApplyBlock(p int, v, u []float64) error {
	lo, hi := sparse.BlockLayout(c).Range(p)
	copy(u[lo:hi], v[lo:hi])
	return nil
}

// TestEngineGuardsSkipStalePages checks the core contract on the guarded
// full-overwrite page body (ApplyPrecondPage, here with the identity
// apply) replayed as a prepared wave: it skips pages whose input is not
// current, leaving the old version in place, stamps the rest and
// revalidates a lost output page it overwrote; the guarded reduction then
// leaves the skipped page's partial missing.
func TestEngineGuardsSkipStalePages(t *testing.T) {
	const n, page = 256, 32
	a := testMatrix(n)
	layout := sparse.BlockLayout{N: n, BlockSize: page}
	rt := taskrt.New(2)
	defer rt.Close()
	e := New(a, layout, rt, true, 0)

	space := pagemem.NewSpace(n, page)
	src := Vec{V: space.AddVector("src"), S: NewStamps(e.NP)}
	dst := Vec{V: space.AddVector("dst"), S: NewStamps(e.NP)}
	for i := range src.V.Data {
		src.V.Data[i] = 1
	}
	src.S.Fill(5)
	src.S[3].Store(4) // page 3 stale
	dst.V.MarkFailed(5)

	in, out := In(src, 5), Operand{Vec: dst, Ver: 6}
	run(wave(e, "copy", func(p, _, _ int) { e.ApplyPrecondPage(p, copyBlocks(layout), in, out) }))
	for p := 0; p < e.NP; p++ {
		want := int64(6)
		if p == 3 {
			want = -1 // skipped: stays at its initial version
		}
		if got := dst.S[p].Load(); got != want {
			t.Fatalf("page %d stamped %d, want %d", p, got, want)
		}
	}
	if dst.V.Failed(5) {
		t.Fatal("a full overwrite left its lost output page failed")
	}

	// Dot partials: the stale output page stays missing.
	part := NewPartial(e.NP)
	run(wave(e, "dot", func(p, lo, hi int) { e.DotPartialPage(p, lo, hi, In(dst, 6), In(dst, 6), part) }))
	sum, missing := part.SumAvailable()
	if missing != 1 {
		t.Fatalf("missing = %d, want 1", missing)
	}
	if want := float64(n - page); sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

// TestEngineSpMVConnGuard checks that the guarded SpMV page body
// (SpMVDotPage with no partial) skips row-pages whose input halo is stale
// and that PageConnectivity includes the neighbours.
func TestEngineSpMVConnGuard(t *testing.T) {
	const n, page = 256, 32
	a := testMatrix(n)
	layout := sparse.BlockLayout{N: n, BlockSize: page}
	conn := PageConnectivity(a, layout)
	if len(conn[1]) != 3 { // tridiagonal: self + both neighbours
		t.Fatalf("conn[1] = %v", conn[1])
	}
	rt := taskrt.New(2)
	defer rt.Close()
	e := New(a, layout, rt, true, 0)
	space := pagemem.NewSpace(n, page)
	x := Vec{V: space.AddVector("x"), S: NewStamps(e.NP)}
	y := Vec{V: space.AddVector("y"), S: NewStamps(e.NP)}
	x.S.Fill(0)
	x.S[2].Store(-1) // stale input page
	run(wave(e, "y=Ax", func(p, lo, hi int) { e.SpMVDotPage(p, lo, hi, In(x, 0), Operand{Vec: y, Ver: 0}, nil, nil) }))
	for p := 0; p < e.NP; p++ {
		stale := p >= 1 && p <= 3 // pages whose halo touches page 2
		if got := y.S[p].Load() == 0; got == stale {
			t.Fatalf("page %d: stamped=%v, stale=%v", p, got, stale)
		}
	}
}

// TestSitesCountPages: the fault sites are the work clock. A prepared
// wave hands them the operator's page count however it is chunked, each
// time it is replayed; a single task — prepared, critical or overlapped —
// hands them 1; closed sites hand nothing.
func TestSitesCountPages(t *testing.T) {
	const n, page = 1000, 32 // 32 pages, the last one short
	a := testMatrix(n)
	layout := sparse.BlockLayout{N: n, BlockSize: page}
	rt := taskrt.NewInline()
	for _, nchunks := range []int{1, 3, 7, 32} {
		e := New(a, layout, rt, false, nchunks)
		var sites Sites
		pages := 0
		sites.Hook = func(_ int, _ string, p int) { pages += p }
		e.Sites = &sites
		wave := e.Prepare("wave", 0, func(int, int, int) {})
		single := e.PrepareSingle("r1", 0, func() {})

		rt.WaitAll(wave.Submit(nil))
		sites.Open(0)
		rt.WaitAll(wave.Submit(nil))
		rt.WaitAll(wave.Submit(nil))
		rt.WaitAll(single.Submit(nil))
		e.CriticalRecovery("r2r3", 0, func() {})
		rt.Wait(e.OverlappedRecovery("rV", nil, func() {}))
		sites.Close()
		rt.WaitAll(wave.Submit(nil))
		if want := 2*e.NP + 3; pages != want {
			t.Fatalf("%d chunks: the sites counted %d pages, want %d", nchunks, pages, want)
		}
	}
}
