// Operator contexts: the cacheable half of solver construction. Building
// a solver splits into (1) everything derivable from the operator alone —
// CSR shadows, the diagonal-block caches that double as block-Jacobi
// preconditioners (factored at first use by a method that reads factors),
// the shard layout — and (2) a cheap per-request binding of RHS and
// launch configuration. An OperatorContext owns (1) plus a pool of warm
// solver instances whose prepared task graphs replay across requests, so
// two solves against the same matrix never refactorize or re-prepare; a
// ContextCache keeps contexts for repeated-operator traffic under a
// memory cap.
package registry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/pagemem"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// spdFor maps a solver name to the factorization family its recovery
// relations and preconditioner use: Cholesky for the CG family, LU for
// the general-matrix methods. Must agree with the solvers' own choices.
func spdFor(name string) bool {
	switch name {
	case "bicgstab", "gmres":
		return false
	}
	return true // cg
}

// poolKey identifies one reusable solver build: every Config field that
// is baked into construction (per-request fields — RHS, cancellation,
// trace hooks — are rebound at checkout instead).
type poolKey struct {
	name               string
	method             core.Method
	workers            int
	usePrecond         bool
	tol                float64
	maxIter            int
	fallback           core.Fallback
	taskPriority       int
	checkpointInterval int
	abft               bool
	expectedMTBE       time.Duration
	disk               *core.SimDisk
}

// OperatorContext is the cached, shareable state for one matrix. All
// methods are safe for concurrent use. A block cache is factored whole,
// in parallel, at the first checkout whose solve can read a factor, so
// no such solve ever factorizes; a context whose solves were all Ideal,
// Trivial or Checkpoint without a preconditioner holds none.
type OperatorContext struct {
	Key         string
	A           *sparse.CSR
	PageDoubles int
	Layout      sparse.BlockLayout

	mu     sync.Mutex
	blocks map[bool]*sparse.BlockSolverCache // spd -> cache
	pool   map[poolKey][]*pooledCG
}

type pooledCG struct {
	s      *core.CG
	inst   *Instance
	inline bool // built on a private taskrt.NewInline runtime
}

// NewOperatorContext builds the context for one matrix. pageDoubles <= 0
// means the paper's 4 KiB page.
func NewOperatorContext(key string, a *sparse.CSR, pageDoubles int) *OperatorContext {
	pd := defaults.PageDoublesOr(pageDoubles)
	return &OperatorContext{
		Key:         key,
		A:           a,
		PageDoubles: pd,
		Layout:      sparse.BlockLayout{N: a.N, BlockSize: pd},
		blocks:      make(map[bool]*sparse.BlockSolverCache),
		pool:        make(map[poolKey][]*pooledCG),
	}
}

// Blocks returns the diagonal-block cache of the requested family, built
// empty on first request. Its factors — the expensive step this whole
// layer exists to amortize — are computed by the first checkout that can
// read them (blocksFor), or by a caller's own PrefactorizeLenient.
func (c *OperatorContext) Blocks(spd bool) *sparse.BlockSolverCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bc, ok := c.blocks[spd]; ok {
		return bc
	}
	bc := sparse.NewBlockSolverCache(c.A, c.Layout, spd)
	c.blocks[spd] = bc
	return bc
}

// blocksFor returns the cache a checkout under cfg binds, factored whole
// first when the solve can read a factor — the block-Jacobi apply, FEIR's
// and AFEIR's inverse relations, Lossy's interpolation — so no request
// pays for one mid-solve. Ideal, Trivial and Checkpoint repair nothing
// through a block. Method and UsePrecond are pool-key fields, so whether
// a checkout factors is a function of operator and key alone, like the
// inline choice.
func (c *OperatorContext) blocksFor(name string, cfg Config) *sparse.BlockSolverCache {
	bc := c.Blocks(spdFor(name))
	switch {
	case cfg.UsePrecond, cfg.Method == core.MethodFEIR, cfg.Method == core.MethodAFEIR, cfg.Method == core.MethodLossy:
		bc.PrefactorizeLenient()
	}
	return bc
}

// SizeBytes estimates the resident cost of the context: the CSR (values,
// index arrays and their narrow shadows) plus the diagonal-block factors
// built so far, at their actual (banded) size. The estimate drives cache
// eviction only, so page-granularity accuracy is enough.
func (c *OperatorContext) SizeBytes() int64 {
	nnz := int64(len(c.A.Vals))
	n := int64(c.A.N)
	bytes := nnz*8 + nnz*8 + (n+1)*8 // vals + cols + rowptr
	bytes += nnz*4 + (n+1)*4         // int32 shadows (worst case: present)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, bc := range c.blocks {
		bytes += bc.Bytes()
	}
	return bytes
}

// inlineMaxOps is the IterOps estimate below which the registry runs a cg
// solve whole on the goroutine that calls Run (taskrt.NewInline) instead of
// spreading it over the shared pool: two workers save at most half an
// iteration and pay its phase hand-offs (≈ 45 µs on the 2-vCPU reference
// host), so the pool pays only once a sequential iteration passes ≈ 90 µs.
// BenchmarkInlineVsPool, one solve alone on the machine, pool of two
// against no workers, median of 5 × 40 alternating solves — estimate, pool
// time ÷ inline time, with the DIA and vector kernels on their AVX2 bodies
// (DESIGN §8 has the operators, and the readings on the Go bodies):
//
//	 61 k 1.37   115 k 0.94   124 k 1.10   138 k 0.97   184 k 0.94
//	205 k 0.70   229 k 0.79   245 k 0.73   245 k 0.89   368 k 0.70
//	537 k 0.62  1158 k 0.62
//
// The AVX2 bodies cut the kernel time and not the hand-offs, so the DIA
// rows moved towards inline (the Go bodies read 1.02, 0.85–0.88,
// 0.76–0.77, 0.73–0.76 and 0.67–0.73 on the 61 k, 124 k, 138 k, 184 k
// and 245 k DIA rows in the same session); the turn from tie to loss
// still lies between 184 k and 205 k, so the bound did not move.
// The bound sits where alone turns from tie to loss. Under load the rows
// below it gain what this cannot show (two dispatchers sharing one pool:
// serve-mix solve_ms_p50 4.20 → 2.88 ms, ten pairs); the rows above it are
// every other benchmark workload. A timed probe, or the server's load,
// would flip operators near the bound from run to run (the host has two
// speed levels 1.4× apart): a constant, not a setting.
const inlineMaxOps = 192 << 10

// blockRowOps is what one row of a block-Jacobi apply costs beyond its
// factor entries, in IterOps' memory operations: a renumbered page of a
// 2-D grid has a half-bandwidth of 4–8, so its solve waits on two
// dependent divisions per row (forward and back) and the moves of its
// order, not on bytes.
// BenchmarkInlineVsPool calibrates it: inline, the two preconditioned
// thermal2 rows take 45–62 operations per row longer than their entries
// alone price, at the 0.40–0.44 ns per operation of the unpreconditioned
// thermal2 rows — and BenchmarkBlockSolve agrees, 24–28 ns a row beyond
// the entries. Like inlineMaxOps, a constant, not a setting.
const blockRowOps = 56

// IterOps estimates the memory operations of one cg iteration — one per
// nonzero through the DIA shadow, two (value + gather) through an indexed
// one, 10 per row for the d/q/x/g updates and their partials, and for the
// block-Jacobi apply two per factor entry plus blockRowOps per row — and
// returns inlineMaxOps.
func (c *OperatorContext) IterOps(usePrecond bool) (ops, inlineBelow int64) {
	nnz := int64(c.A.NNZ())
	ops = nnz + 10*int64(c.A.N)
	if c.A.ShadowName() != "dia" {
		ops += nnz
	}
	if usePrecond {
		bc := c.Blocks(true)
		bc.PrefactorizeLenient() // a preconditioned solve reads them all
		ops += bc.Bytes()/4 + blockRowOps*int64(c.A.N)
	}
	return ops, inlineMaxOps
}

func keyFor(name string, cfg Config) poolKey {
	return poolKey{
		name:               name,
		method:             cfg.Method,
		workers:            cfg.Workers,
		usePrecond:         cfg.UsePrecond,
		tol:                defaults.TolOr(cfg.Tol),
		maxIter:            cfg.MaxIter,
		fallback:           cfg.Fallback,
		taskPriority:       cfg.TaskPriority,
		checkpointInterval: cfg.CheckpointInterval,
		abft:               cfg.ABFT,
		expectedMTBE:       cfg.ExpectedMTBE,
		disk:               cfg.Disk,
	}
}

// Checkout is one request's hold on a solver bound to this context.
// Release returns poolable instances to the warm pool; calling it on a
// non-poolable checkout is a no-op. A Checkout must not be used after
// Release.
type Checkout struct {
	Instance *Instance
	// Warm reports whether the checkout reused a pooled instance (and so
	// skipped construction entirely).
	Warm bool
	// Inline: Run executes the whole solve on the calling goroutine.
	Inline bool

	ctx      *OperatorContext
	key      poolKey
	cg       *pooledCG
	released bool
}

// Checkout binds a solver for one request against the cached operator.
// The request supplies only RHS and launch configuration; the context
// supplies the matrix, the block cache (factored whole first if the
// method can read it, so the solve itself never factorizes) and (for the
// pooled single-node CG family) a warm instance whose prepared task
// graphs replay as-is. Non-pooled solvers are built fresh but still share
// the block cache and the process-wide task pool, so the dominant setup
// cost is amortized for every method.
//
// With Config.RT nil the runtime is the registry's choice: the shared
// pool, or for a single-node cg under the IterOps bound a private one with
// no workers — a function of operator and pool key alone, so every
// checkout under one key agrees with the warm instances it finds.
func (c *OperatorContext) Checkout(name string, b []float64, cfg Config) (*Checkout, error) {
	if pd := defaults.PageDoublesOr(cfg.PageDoubles); pd != c.PageDoubles {
		return nil, fmt.Errorf("registry: page size %d does not match cached context (%d)", pd, c.PageDoubles)
	}
	// Before the pool is touched: a popped instance that failed its Rebind
	// would be neither pooled again nor released.
	if len(b) != c.A.N {
		return nil, fmt.Errorf("registry: rhs length %d for n=%d", len(b), c.A.N)
	}
	cfg.Blocks = c.blocksFor(name, cfg)

	// The single-node CG family is fully reusable: Rebind + reset instead
	// of construction. Everything else (distributed substrates, the
	// Krylov-basis methods) is rebuilt per request on shared resources.
	if name == "cg" && cfg.Ranks == 0 {
		key := keyFor(name, cfg)
		c.mu.Lock()
		if q := c.pool[key]; len(q) > 0 {
			p := q[len(q)-1]
			c.pool[key] = q[:len(q)-1]
			c.mu.Unlock()
			_ = p.s.Rebind(b) // its one failure, a length mismatch, is ruled out above
			p.s.SetCancelled(cfg.Cancelled)
			p.s.SetOnIteration(cfg.OnIteration)
			return &Checkout{Instance: p.inst, Warm: true, Inline: p.inline, ctx: c, key: key, cg: p}, nil
		}
		c.mu.Unlock()
		inline := false
		if cfg.RT == nil {
			if ops, limit := c.IterOps(cfg.UsePrecond); ops < limit {
				inline, cfg.RT = true, taskrt.NewInline()
			} else {
				cfg.RT = taskrt.Shared(cfg.Workers)
			}
		}
		s, err := core.NewCG(c.A, b, cfg.Config)
		if err != nil {
			return nil, err
		}
		inst := &Instance{
			Spaces:   []*pagemem.Space{s.Space()},
			Dynamic:  s.DynamicVectors(),
			Run:      func() (core.Result, error) { return s.Run() },
			Solution: s.Solution,
			SetSite:  s.SetSite,
		}
		return &Checkout{Instance: inst, Inline: inline, ctx: c, key: key, cg: &pooledCG{s: s, inst: inst, inline: inline}}, nil
	}

	if cfg.RT == nil {
		cfg.RT = taskrt.Shared(cfg.Workers)
	}
	inst, err := New(name, c.A, b, cfg)
	if err != nil {
		return nil, err
	}
	return &Checkout{Instance: inst, ctx: c}, nil
}

// Release returns a poolable instance to the context's warm pool. The
// per-request hooks are cleared first so a stale cancellation can never
// abort the next tenant's solve, nor a stale fault plan storm it.
func (co *Checkout) Release() {
	if co.released || co.cg == nil {
		return
	}
	co.released = true
	co.cg.s.SetCancelled(nil)
	co.cg.s.SetOnIteration(nil)
	co.cg.s.SetSite(nil)
	co.ctx.mu.Lock()
	co.ctx.pool[co.key] = append(co.ctx.pool[co.key], co.cg)
	co.ctx.mu.Unlock()
}

// BatchCheckout is one multi-RHS operation's hold on this context. There
// is no batched solver (DESIGN §11): S solves its columns one after
// another, each a Checkout, Run and Release on the solo pool, so every
// column is bitwise its solo solve. Release is needed only when S never
// ran.
type BatchCheckout struct {
	S *BatchSolve
	// Warm reports whether the first column's checkout reused a pooled
	// instance.
	Warm bool
}

// BatchSolve is the column-by-column solve behind a BatchCheckout.
type BatchSolve struct {
	ctx   *OperatorContext
	name  string
	rhs   [][]float64
	cfg   Config
	first *Checkout // the first column's, taken by CheckoutBatch
}

// BatchResult reports a BatchSolve: each column's result and solution,
// the most iterations any column ran, and the wall time of the whole Run.
type BatchResult struct {
	Columns    []core.Result
	X          [][]float64
	Iterations int
	Elapsed    time.Duration
}

// CheckoutBatch binds the columns of rhs (1 to width of them, each of
// length n) to solver name under cfg. It takes the first column's
// checkout now, so an error Checkout would return surfaces here.
func (c *OperatorContext) CheckoutBatch(name string, rhs [][]float64, width int, cfg Config) (*BatchCheckout, error) {
	if len(rhs) == 0 || len(rhs) > width {
		return nil, fmt.Errorf("registry: %d right-hand sides at width %d", len(rhs), width)
	}
	for _, b := range rhs {
		if len(b) != c.A.N {
			return nil, fmt.Errorf("registry: rhs length %d for n=%d", len(b), c.A.N)
		}
	}
	co, err := c.Checkout(name, rhs[0], cfg)
	if err != nil {
		return nil, err
	}
	s := &BatchSolve{ctx: c, name: name, rhs: rhs, cfg: cfg, first: co}
	return &BatchCheckout{S: s, Warm: co.Warm}, nil
}

// Run solves the columns in order and stops at the first error.
func (s *BatchSolve) Run() (BatchResult, error) {
	start := time.Now()
	out := BatchResult{Columns: make([]core.Result, len(s.rhs)), X: make([][]float64, len(s.rhs))}
	for j, b := range s.rhs {
		co := s.first
		s.first = nil
		if co == nil {
			var err error
			if co, err = s.ctx.Checkout(s.name, b, s.cfg); err != nil {
				return out, err
			}
		}
		res, err := co.Instance.Run()
		if err == nil {
			out.X[j] = append([]float64(nil), co.Instance.Solution()...)
		}
		co.Release()
		if err != nil {
			return out, err
		}
		out.Columns[j] = res
		out.Iterations = max(out.Iterations, res.Iterations)
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Release returns the first column's instance if S never ran.
func (co *BatchCheckout) Release() {
	if co.S.first != nil {
		co.S.first.Release()
		co.S.first = nil
	}
}

// ContextCache is an LRU of operator contexts under a memory cap, the
// matrix-handle store of the serving layer. In-flight solves hold their
// own *OperatorContext references, so eviction never invalidates a
// running request — the context just stops being findable by handle.
type ContextCache struct {
	mu       sync.Mutex
	capBytes int64
	items    map[string]*cacheEntry
	tick     int64
	hits     int64
	misses   int64
}

type cacheEntry struct {
	ctx  *OperatorContext
	used int64
}

// NewContextCache builds a cache; capBytes <= 0 means
// defaults.ServeCacheBytes.
func NewContextCache(capBytes int64) *ContextCache {
	return &ContextCache{
		capBytes: defaults.ServeCacheBytesOr(capBytes),
		items:    make(map[string]*cacheEntry),
	}
}

// Get returns the context for a matrix handle, updating recency and the
// hit/miss counters.
func (cc *ContextCache) Get(key string) (*OperatorContext, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e, ok := cc.items[key]
	if !ok {
		cc.misses++
		return nil, false
	}
	cc.hits++
	cc.tick++
	e.used = cc.tick
	return e.ctx, true
}

// Peek is Get without the recency and hit/miss updates; nil when absent.
func (cc *ContextCache) Peek(key string) *OperatorContext {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.items[key]; ok {
		return e.ctx
	}
	return nil
}

// Put inserts (or replaces) the context for a matrix handle and evicts
// least-recently-used entries while the cache exceeds its cap. The newly
// inserted entry is never evicted — a matrix larger than the whole cap
// still gets to serve its own requests.
func (cc *ContextCache) Put(key string, a *sparse.CSR, pageDoubles int) *OperatorContext {
	ctx := NewOperatorContext(key, a, pageDoubles)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.tick++
	cc.items[key] = &cacheEntry{ctx: ctx, used: cc.tick}
	cc.evictLocked(key)
	return ctx
}

func (cc *ContextCache) evictLocked(keep string) {
	for len(cc.items) > 1 && cc.bytesLocked() > cc.capBytes {
		var lruKey string
		var lruUsed int64
		for k, e := range cc.items {
			if k == keep {
				continue
			}
			if lruKey == "" || e.used < lruUsed {
				lruKey, lruUsed = k, e.used
			}
		}
		if lruKey == "" {
			return
		}
		delete(cc.items, lruKey)
	}
}

func (cc *ContextCache) bytesLocked() int64 {
	var total int64
	for _, e := range cc.items {
		total += e.ctx.SizeBytes()
	}
	return total
}

// Bytes returns the estimated resident size of all cached contexts.
func (cc *ContextCache) Bytes() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.bytesLocked()
}

// Len returns the number of cached contexts.
func (cc *ContextCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.items)
}

// Counters returns the lifetime hit/miss counts.
func (cc *ContextCache) Counters() (hits, misses int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.hits, cc.misses
}
