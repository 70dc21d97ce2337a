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

// TestEngineGuardsSkipStalePages checks the core contract: a PageOp skips
// pages whose inputs are not current, leaving the old version in place,
// and stamps the rest.
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

	out := Operand{Vec: dst, Ver: 6}
	rt.WaitAll(e.PageOp("copy", nil, []Operand{In(src, 5)}, &out, true, func(p, lo, hi int) bool {
		copy(dst.V.Data[lo:hi], src.V.Data[lo:hi])
		return true
	}))
	for p := 0; p < e.NP; p++ {
		want := int64(6)
		if p == 3 {
			want = -1 // skipped: stays at its initial version
		}
		if got := dst.S[p].Load(); got != want {
			t.Fatalf("page %d stamped %d, want %d", p, got, want)
		}
	}

	// Dot partials: the stale output page stays missing.
	part := NewPartial(e.NP)
	rt.WaitAll(e.DotPartials("dot", nil, In(dst, 6), In(dst, 6), part))
	sum, missing := part.SumAvailable()
	if missing != 1 {
		t.Fatalf("missing = %d, want 1", missing)
	}
	if want := float64(n - page); sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

// TestEngineSpMVConnGuard checks that SpMV skips row-pages whose input
// halo is stale and that PageConnectivity includes the neighbours.
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
	rt.WaitAll(e.SpMV("y=Ax", nil, In(x, 0), Operand{Vec: y, Ver: 0}))
	for p := 0; p < e.NP; p++ {
		stale := p >= 1 && p <= 3 // pages whose halo touches page 2
		if got := y.S[p].Load() == 0; got == stale {
			t.Fatalf("page %d: stamped=%v, stale=%v", p, got, stale)
		}
	}
}

// TestSitesCountPages: the fault sites are the work clock. A chunked wave
// hands them the operator's page count however it is chunked, replayed
// or immediate; a single task hands them 1; closed sites hand nothing.
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

		rt.WaitAll(e.RawOp("closed", nil, func(int, int, int) {}))
		sites.Open(0)
		rt.WaitAll(e.RawOp("raw", nil, func(int, int, int) {}))
		rt.WaitAll(wave.Submit(nil))
		rt.WaitAll(single.Submit(nil))
		e.CriticalRecovery("r2r3", 0, func() {})
		sites.Close()
		rt.WaitAll(wave.Submit(nil))
		if want := 2*e.NP + 2; pages != want {
			t.Fatalf("%d chunks: the sites counted %d pages, want %d", nchunks, pages, want)
		}
	}
}
