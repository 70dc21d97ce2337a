package shard

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestInteriorBoundaryPartition pins the partition invariants: every
// owned page is exactly one of interior/boundary, interior pages read no
// ghost page, and every boundary page is gated on at least one halo page,
// among them every ghost its rows read.
func TestInteriorBoundaryPartition(t *testing.T) {
	s := testSubstrate(t, 4)
	defer s.Close()
	for _, r := range s.Ranks {
		seen := map[int]int{}
		for _, p := range r.Interior {
			seen[p]++
			for _, j := range s.Conn[p] {
				if !r.Owns(j) {
					t.Fatalf("rank %d interior page %d reads ghost %d", r.ID, p, j)
				}
			}
		}
		for _, p := range r.Boundary {
			seen[p]++
			ghosts := r.ghosts[p-r.PLo]
			if len(ghosts) == 0 {
				t.Fatalf("rank %d boundary page %d is gated on no ghost", r.ID, p)
			}
			for _, j := range ghosts {
				if !slices.Contains(r.Halo, j) {
					t.Fatalf("rank %d page %d gated on %d, which is never imported", r.ID, p, j)
				}
			}
			for _, j := range s.Conn[p] {
				if !r.Owns(j) && !slices.Contains(ghosts, j) {
					t.Fatalf("rank %d page %d reads ghost %d ungated", r.ID, p, j)
				}
			}
		}
		for p := r.PLo; p < r.PHi; p++ {
			if seen[p] != 1 {
				t.Fatalf("rank %d page %d covered %d times", r.ID, p, seen[p])
			}
		}
	}
}

// TestOverlapStepPaddedShadowRace is the -race regression for that split
// (CI runs it at -cpu 4). On a 27-point stencil with 128-double pages the
// DIA shadow's zero-padded slots reach a ghost page the rows' CSR columns
// do not, so a page classified from Conn alone ran its SpMV while that
// page's import was still copying. Without the detector it still pins the
// replayed overlapped reduction to the barrier path's.
func TestOverlapStepPaddedShadowRace(t *testing.T) {
	a := matgen.Poisson3D27(16, 16, 16)
	if a.ShadowName() != "dia" {
		t.Fatalf("shadow %q: the case needs the padded DIA kernels", a.ShadowName())
	}
	s, err := NewOpts(a, matgen.Ones(a.N), 4, 128, 4, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.AddVector("g")
	d := s.AddVector("d")
	q := s.AddVector("q")
	s.Scatter(matgen.RandomVector(a.N, 11), g)
	step := s.NewOverlapStep("d|q", d, q, func(r *Rank, p, lo, hi int) {
		sparse.XpbyRange(g.Of(r).Data, 0.37, d.Of(r).Data, lo, hi)
	}, true, false)
	var got float64
	for rep := 0; rep < 200; rep++ {
		got, _ = step.Run()
	}
	if want := s.SpMVDot("q", d, q); got != want {
		t.Fatalf("<d,q> overlapped %v, barrier %v", got, want)
	}
}

// TestOverlapStepMatchesBarrierSpMVDot runs the same d-update + SpMV +
// <d,q> superstep through the overlapped graph and the barrier path on
// identical inputs: output rows and the fused reduction must agree
// bitwise (same kernels, same partial slots, same sum order).
func TestOverlapStepMatchesBarrierSpMVDot(t *testing.T) {
	mk := func() (*Substrate, *Vec, *Vec, *Vec) {
		a := matgen.Poisson2D(40, 40)
		b := matgen.RandomVector(a.N, 5)
		s, err := NewOpts(a, b, 4, 64, 2, true, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := s.AddVector("g")
		d := s.AddVector("d")
		q := s.AddVector("q")
		s.Scatter(matgen.RandomVector(a.N, 11), g)
		s.Scatter(matgen.RandomVector(a.N, 13), d)
		return s, g, d, q
	}

	beta := 0.37
	sB, gB, dB, qB := mk()
	defer sB.Close()
	sB.RankOp("d", func(r *Rank, p, lo, hi int) {
		sparse.XpbyRange(gB.Of(r).Data, beta, dB.Of(r).Data, lo, hi)
	})
	wantDQ := sB.SpMVDot("q", dB, qB)

	sO, gO, dO, qO := mk()
	defer sO.Close()
	step := sO.NewOverlapStep("d|q", dO, qO, func(r *Rank, p, lo, hi int) {
		sparse.XpbyRange(gO.Of(r).Data, beta, dO.Of(r).Data, lo, hi)
	}, true, false)
	for rep := 0; rep < 3; rep++ { // replays must stay correct
		gotDQ, _ := step.Run()
		if rep == 0 && gotDQ != wantDQ {
			t.Fatalf("<d,q> overlapped %v, barrier %v", gotDQ, wantDQ)
		}
	}

	// Vectors after one application agree bitwise: rerun barrier twice
	// more so both sides applied the in-place d-update three times.
	for rep := 0; rep < 2; rep++ {
		sB.RankOp("d", func(r *Rank, p, lo, hi int) {
			sparse.XpbyRange(gB.Of(r).Data, beta, dB.Of(r).Data, lo, hi)
		})
		sB.SpMVDot("q", dB, qB)
	}
	got := make([]float64, sO.A.N)
	want := make([]float64, sB.A.N)
	sO.Gather(qO, got)
	sB.Gather(qB, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("q[%d]: overlapped %v, barrier %v", i, got[i], want[i])
		}
	}
}

// TestOverlapStepHealsGhostFaults: a DUE in a ghost page of the input
// must be healed by the overlapped per-page import exactly as by the
// barrier Exchange.
func TestOverlapStepHealsGhostFaults(t *testing.T) {
	s := testSubstrate(t, 4)
	defer s.Close()
	x := s.AddVector("x")
	y := s.AddVector("y")
	s.Scatter(matgen.RandomVector(s.A.N, 9), x)
	var r *Rank
	for _, cand := range s.Ranks {
		if len(cand.Halo) > 0 {
			r = cand
			break
		}
	}
	h := r.Halo[0]
	x.Of(r).Poison(h)
	r.Space.ScramblePending()
	step := s.NewOverlapStep("q", x, y, nil, false, false)
	step.Run()
	if x.Of(r).Failed(h) {
		t.Fatal("overlapped import did not heal the ghost fault")
	}
	lo, hi := s.Layout.Range(h)
	owner := x.R[s.Owner[h]]
	for i := lo; i < hi; i++ {
		if x.Of(r).Data[i] != owner.Data[i] {
			t.Fatalf("ghost data not re-imported at %d", i)
		}
	}
	// And the product matches the barrier SpMV on the healed data.
	want := s.AddVector("want")
	s.SpMV("ref", x, want)
	for _, rr := range s.Ranks {
		for i := rr.Lo; i < rr.Hi; i++ {
			if y.Of(rr).Data[i] != want.Of(rr).Data[i] {
				t.Fatalf("y[%d] diverges after ghost heal", i)
			}
		}
	}
}

// TestPreparedOpsZeroAlloc pins the acceptance criterion: replaying the
// overlapped superstep and the prepared rank ops allocates nothing.
func TestPreparedOpsZeroAlloc(t *testing.T) {
	a := matgen.Poisson2D(64, 64)
	b := matgen.Ones(a.N)
	s, err := NewOpts(a, b, 4, 128, 2, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.AddVector("g")
	d := s.AddVector("d")
	q := s.AddVector("q")
	x := s.AddVector("x")
	s.Scatter(b, g)
	beta, alpha := 0.5, 0.25
	step := s.NewOverlapStep("d|q", d, q, func(r *Rank, p, lo, hi int) {
		sparse.XpbyRange(g.Of(r).Data, beta, d.Of(r).Data, lo, hi)
	}, true, false)
	upd := s.PrepareRankOpDot("xg", func(r *Rank, p, lo, hi int) float64 {
		sparse.AxpyRange(alpha, d.Of(r).Data, x.Of(r).Data, lo, hi)
		return sparse.AxpyDotRange(-alpha, q.Of(r).Data, g.Of(r).Data, lo, hi)
	})
	iter := func() {
		step.Run()
		upd.RunDot()
	}
	for i := 0; i < 10; i++ {
		iter() // warm rings, conds, succ capacity
	}
	const n = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		iter()
	}
	runtime.ReadMemStats(&m1)
	if allocs := float64(m1.Mallocs-m0.Mallocs) / n; allocs > 0.5 {
		t.Fatalf("prepared supersteps allocate %.2f/iter, want 0", allocs)
	}
	// The barrier primitives' substrate side is allocation-free too: the
	// only per-call allocation is the caller's own closure.
	s.Exchange(d, false)
	s.Dot("gg", g, g)
	var b0, b1 runtime.MemStats
	runtime.ReadMemStats(&b0)
	for i := 0; i < n; i++ {
		s.Exchange(d, false)
		s.Dot("gg", g, g)
		s.SpMVDot("q", d, q)
	}
	runtime.ReadMemStats(&b1)
	if allocs := float64(b1.Mallocs-b0.Mallocs) / n; allocs > 0.5 {
		t.Fatalf("barrier supersteps allocate %.2f/call-group, want 0", allocs)
	}
}
