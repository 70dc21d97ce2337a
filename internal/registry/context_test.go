package registry

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inject"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

func testCtxCfg() Config {
	return Config{
		Config: core.Config{
			Method:      core.MethodIdeal,
			PageDoubles: 64,
			Tol:         1e-10,
			UsePrecond:  true,
		},
	}
}

// TestCheckoutWarmZeroRebuilds pins the acceptance claim of the serving
// layer: after warmup, repeated solves against a cached operator perform
// zero diagonal-block factorizations and zero task-graph preparations —
// a warm checkout rebinds the RHS and replays prepared graphs, nothing
// else.
func TestCheckoutWarmZeroRebuilds(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)

	// Warmup: first checkout pays factorization + graph preparation.
	co, err := octx.Checkout("cg", b, testCtxCfg())
	if err != nil {
		t.Fatal(err)
	}
	if co.Warm {
		t.Fatal("first checkout claims to be warm")
	}
	if res, err := co.Instance.Run(); err != nil || !res.Converged {
		t.Fatalf("warmup solve: converged=%v err=%v", res.Converged, err)
	}
	co.Release()

	fac0, prep0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	for i := 0; i < 3; i++ {
		co, err := octx.Checkout("cg", b, testCtxCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !co.Warm {
			t.Fatalf("checkout %d after warmup is not warm", i)
		}
		res, err := co.Instance.Run()
		if err != nil || !res.Converged {
			t.Fatalf("warm solve %d: converged=%v err=%v", i, res.Converged, err)
		}
		co.Release()
	}
	if d := sparse.FactorizationCount() - fac0; d != 0 {
		t.Fatalf("warm solves performed %d factorizations, want 0", d)
	}
	if d := engine.GraphPrepCount() - prep0; d != 0 {
		t.Fatalf("warm solves performed %d graph preparations, want 0", d)
	}
}

// TestConcurrentCheckoutsDistinctRHS runs two goroutines solving
// different right-hand sides against one shared operator context — the
// serving layer's steady state. Run under -race this doubles as the
// data-race gate for the shared block caches and the process-wide pool.
func TestConcurrentCheckoutsDistinctRHS(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)

	rhs := func(scale float64) []float64 {
		b := make([]float64, a.N)
		for i := range b {
			b[i] = scale * float64(1+i%7)
		}
		return b
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := rhs(float64(g + 1))
			for i := 0; i < 3; i++ {
				co, err := octx.Checkout("cg", b, testCtxCfg())
				if err != nil {
					errs <- err
					return
				}
				res, err := co.Instance.Run()
				if err != nil {
					errs <- err
					return
				}
				if !res.Converged {
					t.Errorf("goroutine %d solve %d not converged: %+v", g, i, res)
				}
				co.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedBlocksBitwiseIdentical checks that the prefactorized block
// cache a context hands to solvers is bitwise-identical to one built
// fresh: solving the same per-block RHS through both must give the
// exact same floats, because both factorize the same diagonal blocks
// with the same sequential algorithm. Any divergence means the cached
// path factorized something else.
func TestSharedBlocksBitwiseIdentical(t *testing.T) {
	a, _ := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	shared := octx.Blocks(true)

	fresh := sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: 64}, true)
	fresh.PrefactorizeLenient()

	for blk := 0; blk < shared.Layout.NumBlocks(); blk++ {
		lo, hi := shared.Layout.Range(blk)
		x1 := make([]float64, hi-lo)
		x2 := make([]float64, hi-lo)
		for i := range x1 {
			x1[i] = float64(1+i) / 3
			x2[i] = x1[i]
		}
		err1 := shared.SolveDiagBlock(blk, x1)
		err2 := fresh.SolveDiagBlock(blk, x2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("block %d: cached err=%v fresh err=%v", blk, err1, err2)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("block %d element %d: cached %v != fresh %v (not bitwise identical)", blk, i, x1[i], x2[i])
			}
		}
	}
}

// TestSizeBytesCountsBuiltFactors: the eviction estimate charges a
// context the factors it actually holds — nothing while its caches are
// empty, then exactly the banded factors' bytes once preconditioned solves
// of both families have built them, well under the dense blocks × bs² × 8
// a 5-point operator was charged before. The solves run from several
// goroutines at once, so under -race this is also the gate for the
// parallel factorization behind a preconditioned checkout.
func TestSizeBytesCountsBuiltFactors(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	bare := octx.SizeBytes()
	octx.Blocks(true)
	octx.Blocks(false)
	if got := octx.SizeBytes(); got != bare {
		t.Fatalf("SizeBytes = %d with empty caches, want the CSR's %d", got, bare)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			co, err := octx.Checkout(name, b, testCfg(true, 0))
			if err != nil {
				t.Error(err)
				return
			}
			if res, err := co.Instance.Run(); err != nil || !res.Converged {
				t.Errorf("%s: converged=%v err=%v", name, res.Converged, err)
			}
			co.Release()
		}([]string{"cg", "bicgstab"}[g%2])
	}
	wg.Wait()

	chol, lu := octx.Blocks(true).Bytes(), octx.Blocks(false).Bytes()
	if chol <= 0 || lu <= 0 {
		t.Fatalf("factor bytes: cholesky %d, lu %d", chol, lu)
	}
	if got := octx.SizeBytes(); got != bare+chol+lu {
		t.Fatalf("SizeBytes = %d, want CSR %d + factors %d + %d", got, bare, chol, lu)
	}
	if dense := int64(octx.Layout.NumBlocks()) * 64 * 64 * 8; chol > dense/2 || lu > dense {
		t.Fatalf("factors hold %d (cholesky) and %d (lu) bytes; dense blocks were %d each", chol, lu, dense)
	}
}

// lossSolve checks out cg on octx under cfg, loses page of vector vec
// (none when vec is "") at the first fault site of iteration 3, runs the
// solve and returns its result. On ranks the loss lands in rank 0's space.
// It reports failures with t.Errorf, so any goroutine may call it.
func lossSolve(t *testing.T, octx *OperatorContext, b []float64, cfg Config, vec string, page int) core.Result {
	t.Helper()
	co, err := octx.Checkout("cg", b, cfg)
	if err != nil {
		t.Error(err)
		return core.Result{}
	}
	defer co.Release()
	if vec != "" {
		plan := &inject.Plan{Errors: []inject.PlannedError{{Vector: co.Instance.Spaces[0].VectorByName(vec), Page: page, AtIteration: 3}}}
		plan.Start()
		co.Instance.SetSite(plan.Site)
		defer func() {
			if plan.Fired() != 1 {
				t.Errorf("%v solve: %d losses fired, want 1", cfg.Method, plan.Fired())
			}
		}()
	}
	res, err := co.Instance.Run()
	if err != nil || !res.Converged {
		t.Errorf("%v solve (loss on %q): converged=%v err=%v", cfg.Method, vec, res.Converged, err)
	}
	return res
}

// TestFactorsAtFirstLoss: a context builds its factors at the first page
// loss that a solve which can read a factor applies (DESIGN §8). Clean
// solves of every method leave the cache empty, and so does a Trivial
// solve that loses a page; the first FEIR loss, even on q, which only
// forward recovery repairs, factors every block once; nothing after it
// factors again — warm, ranked, stormed or preconditioned.
func TestFactorsAtFirstLoss(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	fac0 := sparse.FactorizationCount()
	factored := func() int64 { return sparse.FactorizationCount() - fac0 }
	for _, m := range []core.Method{core.MethodIdeal, core.MethodTrivial, core.MethodFEIR, core.MethodAFEIR, core.MethodLossy} {
		cfg := testCfg(false, 0)
		cfg.Method = m
		lossSolve(t, octx, b, cfg, "", 0)
	}
	if got := octx.Blocks(true).Bytes(); got != 0 {
		t.Fatalf("clean solves left %d bytes of factors", got)
	}
	if d := factored(); d != 0 {
		t.Fatalf("clean solves factorized %d blocks", d)
	}
	trivial := testCfg(false, 0)
	trivial.Method = core.MethodTrivial
	lossSolve(t, octx, b, trivial, "x", 4)
	if d := factored(); d != 0 {
		t.Fatalf("a trivial solve's loss factorized %d blocks", d)
	}

	res := lossSolve(t, octx, b, testCfg(false, 0), "q", 4)
	blocks := int64(octx.Layout.NumBlocks())
	if res.Stats.FaultsSeen != 1 || res.Stats.RecoveredInverse != 0 {
		t.Fatalf("q loss: %d faults seen, %d inverse recoveries; want 1 and 0", res.Stats.FaultsSeen, res.Stats.RecoveredInverse)
	}
	if d := factored(); d != blocks {
		t.Fatalf("first feir loss factorized %d blocks, want all %d", d, blocks)
	}
	if octx.Blocks(true).Bytes() == 0 {
		t.Fatal("first feir loss left the cache empty")
	}
	afeir := testCfg(false, 0)
	afeir.Method = core.MethodAFEIR
	for _, tc := range []struct {
		cfg Config
		vec string
	}{{testCfg(false, 0), ""}, {testCfg(false, 2), ""}, {testCfg(false, 0), "x"}, {afeir, "d0"}, {testCfg(true, 0), ""}} {
		lossSolve(t, octx, b, tc.cfg, tc.vec, 4)
	}
	if d := factored(); d != blocks {
		t.Fatalf("%d factorizations in all, want each of the %d blocks once", d, blocks)
	}
}

// TestRankedFactorsAtFirstLoss: the rank path keeps the same rule on the
// context's shared cache. A clean ranked solve leaves it empty; one loss
// on a ghost page, which the next exchange heals and no relation repairs,
// fills it whole.
func TestRankedFactorsAtFirstLoss(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	fac0 := sparse.FactorizationCount()
	lossSolve(t, octx, b, testCfg(false, 2), "", 0)
	if got, d := octx.Blocks(true).Bytes(), sparse.FactorizationCount()-fac0; got != 0 || d != 0 {
		t.Fatalf("a clean ranked solve left %d bytes of factors (%d factorizations)", got, d)
	}
	// Rank 0's first ghost page is the first page it does not own.
	ghost := engine.ChunkRanges(octx.Layout.NumBlocks(), 2)[0][1]
	res := lossSolve(t, octx, b, testCfg(false, 2), "d", ghost)
	if res.Stats.FaultsSeen != 1 || res.Stats.RecoveredInverse+res.Stats.RecoveredForward != 0 {
		t.Fatalf("ghost loss: %d faults seen, %d inverse and %d forward recoveries; want 1, 0, 0",
			res.Stats.FaultsSeen, res.Stats.RecoveredInverse, res.Stats.RecoveredForward)
	}
	if d, blocks := sparse.FactorizationCount()-fac0, int64(octx.Layout.NumBlocks()); d != blocks {
		t.Fatalf("a ranked ghost loss factorized %d blocks, want all %d", d, blocks)
	}
}

// TestConcurrentFirstLossesFactorOnce: two stormed solves on a cold
// context reach their first loss together; between them they factor each
// block exactly once (under -race, the gate for two fills racing on one
// cache).
func TestConcurrentFirstLossesFactorOnce(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	fac0 := sparse.FactorizationCount()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(m core.Method) {
			defer wg.Done()
			cfg := testCfg(false, 0)
			cfg.Method = m
			lossSolve(t, octx, b, cfg, "x", 4)
		}([]core.Method{core.MethodFEIR, core.MethodAFEIR}[g])
	}
	wg.Wait()
	if d, blocks := sparse.FactorizationCount()-fac0, int64(octx.Layout.NumBlocks()); d != blocks {
		t.Fatalf("two first losses factorized %d blocks, want each of the %d once", d, blocks)
	}
}

// TestIterOpsIndependentOfRecoveries: the preconditioned estimate counts
// every factor whether the cache is empty, holds the few blocks a caller
// factored one at a time, or was filled by a solve's first loss, so the
// inline choice cannot drift with a context's history.
func TestIterOpsIndependentOfRecoveries(t *testing.T) {
	a, b := testSystem(t)
	want, _ := NewOperatorContext("fresh", a, 64).IterOps(true)

	part := NewOperatorContext("part", a, 64)
	if _, err := part.Blocks(true).Solver(3); err != nil {
		t.Fatal(err)
	}
	if got, _ := part.IterOps(true); got != want {
		t.Fatalf("IterOps(true) = %d with one block factored, %d on a fresh context", got, want)
	}

	octx := NewOperatorContext("m", a, 64)
	rt := taskrt.NewInline()
	defer rt.Close()
	s, err := core.NewCG(a, b, core.Config{Method: core.MethodFEIR, PageDoubles: 64, Tol: 1e-10, RT: rt, Blocks: octx.Blocks(true)})
	if err != nil {
		t.Fatal(err)
	}
	s.SetOnIteration(func(it int, _ float64) {
		if it == 5 {
			s.Space().VectorByName("x").Poison(3)
		}
	})
	res, err := s.Run()
	if err != nil || !res.Converged {
		t.Fatalf("faulted solve: converged=%v err=%v", res.Converged, err)
	}
	if res.Stats.RecoveredInverse == 0 || octx.Blocks(true).Bytes() == 0 {
		t.Fatalf("the lost page built no factor (%d inverse recoveries)", res.Stats.RecoveredInverse)
	}
	if got, _ := octx.IterOps(true); got != want {
		t.Fatalf("IterOps(true) = %d after recoveries, %d on a fresh context", got, want)
	}
}

// TestContextCacheEviction pins the LRU-under-cap behaviour of the
// matrix-handle store: inserting past the cap evicts the least recently
// used context while the newest insert always survives, and the hit /
// miss counters track lookups.
func TestContextCacheEviction(t *testing.T) {
	a, _ := testSystem(t)
	one := NewOperatorContext("probe", a, 64).SizeBytes()
	cc := NewContextCache(one + one/2) // room for one context, not two

	cc.Put("a", a, 64)
	if _, ok := cc.Get("a"); !ok {
		t.Fatal("a missing right after Put")
	}
	cc.Put("b", a, 64)
	if _, ok := cc.Get("b"); !ok {
		t.Fatal("newest insert b was evicted")
	}
	if _, ok := cc.Get("a"); ok {
		t.Fatal("a survived past the cap (no eviction)")
	}
	if n := cc.Len(); n != 1 {
		t.Fatalf("cache holds %d contexts, want 1", n)
	}
	hits, misses := cc.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Recency matters: touch the older entry, insert a third; the
	// untouched one goes.
	cc2 := NewContextCache(2*one + one/2) // room for two
	cc2.Put("a", a, 64)
	cc2.Put("b", a, 64)
	if _, ok := cc2.Get("a"); !ok {
		t.Fatal("a evicted while under cap")
	}
	cc2.Put("c", a, 64) // over cap: evict LRU = b (a was just touched)
	if _, ok := cc2.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := cc2.Get("a"); !ok {
		t.Fatal("recently used a was evicted instead of LRU b")
	}
}

// TestCheckoutKeysConstructionFields: a warm instance serves only a
// request built the same way. Each variant differs from a released FEIR
// instance in one field the constructor reads and must check out cold, the
// ABFT one with checksum coverage on.
func TestCheckoutKeysConstructionFields(t *testing.T) {
	a, b := testSystem(t)
	for name, set := range map[string]func(*Config){
		"ABFT":         func(c *Config) { c.ABFT = true },
		"ExpectedMTBE": func(c *Config) { c.ExpectedMTBE = time.Second },
		"Disk":         func(c *Config) { c.Disk = core.NewSimDisk(0) },
	} {
		octx := NewOperatorContext("m", a, 64)
		cfg := testCfg(false, 0)
		co, err := octx.Checkout("cg", b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := co.Instance.Run(); err != nil || !res.Converged {
			t.Fatalf("%s: base solve converged=%v err=%v", name, res.Converged, err)
		}
		co.Release()
		set(&cfg)
		if co, err = octx.Checkout("cg", b, cfg); err != nil {
			t.Fatal(err)
		}
		if co.Warm {
			t.Errorf("%s checkout reused the instance built without it", name)
		}
		if cfg.ABFT && !co.Instance.Dynamic[0].ChecksumsEnabled() {
			t.Error("ABFT checkout runs without checksum coverage")
		}
	}
}

// TestPoolKeyCoversConfig: every core.Config field either changes the
// warm pool's key or is rebound per request (Tol and MaxIter by
// TestWarmCheckoutRebindsStopRule), so a field added later cannot
// let one configuration's warm instance serve another.
func TestPoolKeyCoversConfig(t *testing.T) {
	// Set at checkout (hooks, runtime, the context's block cache) or fixed
	// per context (TestCheckoutRejectsMismatchedPageSize).
	rebound := map[string]bool{"Cancelled": true, "OnIteration": true, "RT": true, "Blocks": true, "PageDoubles": true, "Tol": true, "MaxIter": true}
	base := keyFor("cg", Config{})
	ct := reflect.TypeOf(core.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if rebound[f.Name] {
			continue
		}
		var cfg Config
		v := reflect.ValueOf(&cfg.Config).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("core.Config.%s (%s) is neither keyed nor rebound", f.Name, f.Type)
		}
		if keyFor("cg", cfg) == base {
			t.Errorf("core.Config.%s does not change the pool key", f.Name)
		}
	}
}

// TestWarmCheckoutRebindsStopRule: tolerance and iteration cap are
// per-request, not pool-key fields. One warm instance serves a request
// with a new cap (it stops there), a new tolerance (it converges to it)
// and the original pair again, each bitwise the solve of an instance
// built fresh for that request, and the pool never grows past one.
func TestWarmCheckoutRebindsStopRule(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	solve := func(o *OperatorContext, cfg Config, wantWarm bool) (core.Result, []float64) {
		t.Helper()
		co, err := o.Checkout("cg", b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if co.Warm != wantWarm {
			t.Fatalf("tol %g max_iter %d: warm = %v, want %v", cfg.Tol, cfg.MaxIter, co.Warm, wantWarm)
		}
		res, err := co.Instance.Run()
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), co.Instance.Solution()...)
		co.Release()
		return res, x
	}
	base := testCfg(false, 0)
	first, _ := solve(octx, base, false)
	if !first.Converged {
		t.Fatal("base solve did not converge")
	}
	capped, loose := base, base
	capped.MaxIter = 7
	loose.Tol = 1e-4
	for _, c := range []struct {
		name string
		cfg  Config
		ok   func(core.Result) bool
	}{
		{"max_iter 7", capped, func(r core.Result) bool { return !r.Converged && r.Iterations == 7 }},
		{"tol 1e-4", loose, func(r core.Result) bool {
			return r.Converged && r.Iterations < first.Iterations && r.RelResidual <= 10*1e-4
		}},
		{"the base pair again", base, func(r core.Result) bool { return r.Converged && r.Iterations == first.Iterations }},
	} {
		warm, wx := solve(octx, c.cfg, true)
		if !c.ok(warm) {
			t.Errorf("%s: warm solve converged=%v after %d iterations (base: %d)", c.name, warm.Converged, warm.Iterations, first.Iterations)
		}
		fresh, fx := solve(NewOperatorContext("m", a, 64), c.cfg, false)
		if warm.Iterations != fresh.Iterations || math.Float64bits(warm.RelResidual) != math.Float64bits(fresh.RelResidual) {
			t.Errorf("%s: warm %d iterations, residual %v; fresh %d, %v", c.name, warm.Iterations, warm.RelResidual, fresh.Iterations, fresh.RelResidual)
		}
		for i := range wx {
			if math.Float64bits(wx[i]) != math.Float64bits(fx[i]) {
				t.Fatalf("%s: x[%d] warm %v, fresh %v", c.name, i, wx[i], fx[i])
			}
		}
	}
	octx.mu.Lock()
	defer octx.mu.Unlock()
	if len(octx.pool) != 1 || len(octx.pool[keyFor("cg", base)]) != 1 {
		t.Fatalf("pool holds %d keys, want one key with one instance", len(octx.pool))
	}
}

// TestCheckoutRejectsMismatchedPageSize: the page layout belongs to the
// context; a request asking for a different granularity must be refused
// loudly, not silently re-blocked.
func TestCheckoutRejectsMismatchedPageSize(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	cfg := testCtxCfg()
	cfg.PageDoubles = 128
	if _, err := octx.Checkout("cg", b, cfg); err == nil {
		t.Fatal("checkout with mismatched page size succeeded")
	}
}

// TestWrongLengthCheckoutKeepsWarmInstance: a right-hand side of the wrong
// length is refused before the pool is touched. It used to pop the one
// warm instance, fail its Rebind, and drop it, so the next valid request
// under the same key built a new one.
func TestWrongLengthCheckoutKeepsWarmInstance(t *testing.T) {
	a, b := testSystem(t)
	octx := NewOperatorContext("m", a, 64)
	co, err := octx.Checkout("cg", b, testCtxCfg())
	if err != nil {
		t.Fatal(err)
	}
	co.Release()
	if _, err := octx.Checkout("cg", b[:len(b)-1], testCtxCfg()); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
	if co, err = octx.Checkout("cg", b, testCtxCfg()); err != nil {
		t.Fatal(err)
	}
	defer co.Release()
	if !co.Warm {
		t.Fatal("the warm instance was lost to the wrong-length checkout")
	}
}
