package shard

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func testSubstrate(t *testing.T, ranks int) *Substrate {
	t.Helper()
	a := matgen.Poisson2D(40, 40) // n = 1600, 25 pages of 64
	b := matgen.RandomVector(a.N, 5)
	s, err := NewOpts(a, b, ranks, 64, 2, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLayoutAndHalo(t *testing.T) {
	s := testSubstrate(t, 4)
	defer s.Close()
	if len(s.Ranks) != 4 {
		t.Fatalf("ranks = %d", len(s.Ranks))
	}
	covered := make([]int, s.NP)
	for _, r := range s.Ranks {
		for p := r.PLo; p < r.PHi; p++ {
			covered[p]++
			if s.Owner[p] != r.ID {
				t.Fatalf("owner[%d] = %d, want %d", p, s.Owner[p], r.ID)
			}
		}
		// Every halo page is off-rank and actually read by an owned row.
		for _, h := range r.Halo {
			if r.Owns(h) {
				t.Fatalf("rank %d lists owned page %d as halo", r.ID, h)
			}
			found := false
			for p := r.PLo; p < r.PHi && !found; p++ {
				for _, j := range s.Conn[p] {
					if j == h {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("rank %d halo page %d is not in any owned row's read set", r.ID, h)
			}
		}
	}
	for p, c := range covered {
		if c != 1 {
			t.Fatalf("page %d covered %d times", p, c)
		}
	}
}

func TestExchangeAndSpMV(t *testing.T) {
	s := testSubstrate(t, 3)
	defer s.Close()
	x := s.AddVector("x")
	y := s.AddVector("y")
	// Owned shards hold x_i = i; ghost regions start stale.
	for _, r := range s.Ranks {
		xd := x.Of(r).Data
		for i := r.Lo; i < r.Hi; i++ {
			xd[i] = float64(i)
		}
	}
	s.SpMV("y", x, y)
	// Reference product on the dense global vector.
	xg := make([]float64, s.A.N)
	for i := range xg {
		xg[i] = float64(i)
	}
	want := make([]float64, s.A.N)
	s.A.MulVec(xg, want)
	got := make([]float64, s.A.N)
	s.Gather(y, got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The reduction matches the sequential dot product.
	if dot := s.Dot("<x,y>", x, y); math.Abs(dot-sparse.Dot(xg, want)) > math.Abs(dot)*1e-12 {
		t.Fatalf("dot = %v, want %v", dot, sparse.Dot(xg, want))
	}
}

func TestExchangeHealsGhostFaults(t *testing.T) {
	s := testSubstrate(t, 4)
	defer s.Close()
	x := s.AddVector("x")
	s.Scatter(matgen.RandomVector(s.A.N, 9), x)
	var r *Rank
	for _, cand := range s.Ranks {
		if len(cand.Halo) > 0 {
			r = cand
			break
		}
	}
	if r == nil {
		t.Fatal("no rank with a halo")
	}
	h := r.Halo[0]
	x.Of(r).Poison(h)
	r.Space.ScramblePending()
	if !x.Of(r).Failed(h) {
		t.Fatal("ghost page not failed")
	}
	s.Exchange(x, false)
	if x.Of(r).Failed(h) {
		t.Fatal("exchange did not heal the ghost fault")
	}
	lo, hi := s.Layout.Range(h)
	owner := x.R[s.Owner[h]]
	for i := lo; i < hi; i++ {
		if x.Of(r).Data[i] != owner.Data[i] {
			t.Fatalf("ghost data not re-imported at %d", i)
		}
	}
}

func TestStrictExchangePropagatesOwnerFaults(t *testing.T) {
	s := testSubstrate(t, 4)
	defer s.Close()
	x := s.AddVector("x")
	var r *Rank
	for _, cand := range s.Ranks {
		if len(cand.Halo) > 0 {
			r = cand
			break
		}
	}
	h := r.Halo[0]
	owner := s.Ranks[s.Owner[h]]
	x.Of(owner).Poison(h)
	owner.Space.ScramblePending()
	s.Exchange(x, true)
	if !x.Of(r).Failed(h) {
		t.Fatal("strict exchange did not propagate the owner's fault")
	}
	s.HealGhosts()
	if x.Of(r).Failed(h) {
		t.Fatal("HealGhosts left the propagated ghost bit set")
	}
	if !x.Of(owner).Failed(h) {
		t.Fatal("HealGhosts must not clear the owner's fault")
	}
}

// TestPreparedOpsZeroAlloc: the supersteps replay the substrate's prepared
// per-rank tasks, so Exchange, Dot and SpMVDot allocate nothing, and
// RankOp / RankOpDot allocate nothing when the caller hands them a body it
// bound once (dist.CG's steady loop does).
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
	upd := func(r *Rank, p, lo, hi int) {
		sparse.XpbyRange(g.Of(r).Data, beta, d.Of(r).Data, lo, hi)
	}
	xg := func(r *Rank, p, lo, hi int) float64 {
		sparse.AxpyRange(alpha, d.Of(r).Data, x.Of(r).Data, lo, hi)
		return sparse.AxpyDotRange(-alpha, q.Of(r).Data, g.Of(r).Data, lo, hi)
	}
	iter := func() {
		s.RankOp("d", upd)
		s.Exchange(d, false)
		s.Dot("gg", g, g)
		s.SpMVDot("q", d, q)
		s.RankOpDot("xg", xg)
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
		t.Fatalf("supersteps allocate %.2f/iteration, want 0", allocs)
	}
}

// TestReductionsCountSupersteps: Dot, SpMVDot and RankOpDot each play one
// allreduce and advance Reductions() by exactly 1; SpMV, Exchange and
// RankOp reduce nothing and advance it by 0.
func TestReductionsCountSupersteps(t *testing.T) {
	s := testSubstrate(t, 2)
	defer s.Close()
	x, y := s.AddVector("x"), s.AddVector("y")
	for _, c := range []struct {
		name string
		op   func()
		want int64
	}{
		{"Dot", func() { s.Dot("d", x, y) }, 1},
		{"SpMVDot", func() { s.SpMVDot("q", x, y) }, 1},
		{"RankOpDot", func() { s.RankOpDot("o", func(*Rank, int, int, int) float64 { return 0 }) }, 1},
		{"SpMV", func() { s.SpMV("q", x, y) }, 0},
		{"Exchange", func() { s.Exchange(x, false) }, 0},
		{"RankOp", func() { s.RankOp("o", func(*Rank, int, int, int) {}) }, 0},
	} {
		before := s.Reductions()
		c.op()
		if got := s.Reductions() - before; got != c.want {
			t.Errorf("%s advanced Reductions() by %d, want %d", c.name, got, c.want)
		}
	}
}
