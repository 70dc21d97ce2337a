// Package taskrt is a task-based dataflow runtime in the spirit of OmpSs
// (§3.3 of the paper): serial code is split into tasks scheduled
// asynchronously on a worker pool according to explicit dependencies, with
// task priorities so low-priority recovery tasks start only after the
// reduction tasks they overlap with (AFEIR, Fig 2b).
//
// Unlike OmpSs the dependencies are expressed directly as task handles
// rather than inferred from data annotations; the solver layer builds the
// same graph as the paper's Figure 1. The runtime keeps per-worker state
// clocks (useful / runtime / idle) so the Table 3 breakdown can be
// reproduced.
//
// Scheduling: each worker owns a FIFO run queue; default-priority tasks
// are pushed to the enqueuing worker's own queue (round-robin across
// queues for external submissions) and idle workers steal from their
// peers, so the steady-state hot path never contends on a single lock.
// Tasks with a non-zero priority flow through one shared priority heap:
// positive priorities preempt all queued default work, negative
// priorities (the overlapped recovery tasks) run only when a worker finds
// no default work anywhere — exactly the paper's "recovery tasks start
// after the reductions" discipline.
//
// Waiting: a thread with nothing to run — a worker between phases, a
// coordinator in Wait/WaitAll/Quiesce — polls for a bounded moment before
// it parks (see poll), so a phase boundary inside a solver iteration costs
// a cache-line hand-off, not a park/unpark round trip through the Go
// scheduler and the kernel. A waiter also helps: it runs ready tasks
// itself while the tasks it waits for are pending.
//
// NewInline builds a runtime with no workers, for graphs too short to be
// worth spreading: tasks run in the goroutine that waits for them, through
// the same await — its one-processor case as a property of the runtime.
//
// Handles are reusable: NewTask binds a task body without running it and
// Resubmit/ResubmitAll replay finished handles with fresh dependencies,
// so a solver's steady-state iteration re-issues its whole task graph
// with zero allocations. Completion waiting is lazily allocated (a
// sync.Cond created on the first Wait and kept across reuse) — tasks that
// nobody waits on cost nothing.
package taskrt

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Handle identifies a submitted task and can be used as a dependency for
// later tasks or waited upon. Handles returned by NewTask can be replayed
// with Resubmit once the previous run finished.
type Handle struct {
	rt       *Runtime
	priority int
	home     int // 1-based preferred worker queue; 0 = any
	label    string
	run      func(worker int)

	seq   uint64       // assigned per (re)submission: FIFO tie-break
	npred atomic.Int32 // outstanding dependencies + 1 registration guard
	doneA atomic.Bool  // fast-path mirror of done

	mu       sync.Mutex
	succs    []*Handle // capacity reused across resubmissions
	done     bool
	inflight bool
	cond     *sync.Cond // lazily created on first Wait, kept across reuse
	// panicV is the latest submission's panic, written before done:
	// Wait and WaitAll re-raise it, so only its own tenant sees it.
	panicV any
}

// Label returns the diagnostic label of the task.
func (h *Handle) Label() string { return h.label }

// Done reports whether the most recent submission of the task finished.
func (h *Handle) Done() bool { return h.doneA.Load() }

// TaskSpec describes a task to submit.
type TaskSpec struct {
	// Run is the task body. The worker index (0..NumWorkers-1) is passed
	// in for per-worker scratch data. Must not be nil.
	Run func(worker int)
	// After lists tasks that must complete before this one starts. Nil
	// entries are ignored (convenient for optional graph edges).
	After []*Handle
	// Priority orders ready tasks: higher runs first. The paper gives
	// recovery tasks lower priority than reductions (§3.3.2).
	Priority int
	// Home is a placement hint: when non-zero, every (re)submission of
	// the task enqueues on worker Home-1's run queue instead of
	// round-robin or the releasing worker's queue (use HomeWorker to
	// encode a worker index). A task that touches the same pages every
	// superstep keeps its data resident in one worker's cache across
	// replays. It is a hint, not a bind: idle workers still steal, and
	// non-zero-priority tasks flow through the shared heap regardless.
	Home int
	// Label is a diagnostic name ("q", "<d,q>", "r1", ...).
	Label string
}

// HomeWorker encodes worker index w as a TaskSpec.Home value.
func HomeWorker(w int) int { return w + 1 }

// StateTimes is the cumulative per-worker time accounting used for the
// Table 3 breakdown: Useful (executing task bodies), Runtime (scheduler
// bookkeeping), Idle (waiting for work: load imbalance).
type StateTimes struct {
	Useful  time.Duration
	Runtime time.Duration
	Idle    time.Duration
}

// Total returns the sum of all states.
func (s StateTimes) Total() time.Duration { return s.Useful + s.Runtime + s.Idle }

// wq is one worker's FIFO run queue: a mutex-protected growable ring.
// The owner pops from the head; thieves steal from the head too — FIFO
// order preserves submission order among equal-priority tasks, matching
// the old single-heap scheduler's tie-break.
type wq struct {
	mu         sync.Mutex
	buf        []*Handle // len(buf) is a power of two
	head, tail uint64
	_          [40]byte // pad to a cache line: queues sit in one slice
}

func (q *wq) push(h *Handle) {
	q.mu.Lock()
	if n := uint64(len(q.buf)); q.tail-q.head == n {
		grown := make([]*Handle, max(16, 2*int(n)))
		for i := q.head; i < q.tail; i++ {
			grown[i&uint64(len(grown)-1)] = q.buf[i&(n-1)]
		}
		q.buf = grown
	}
	q.buf[q.tail&uint64(len(q.buf)-1)] = h
	q.tail++
	q.mu.Unlock()
}

func (q *wq) pop() *Handle {
	q.mu.Lock()
	if q.head == q.tail {
		q.mu.Unlock()
		return nil
	}
	i := q.head & uint64(len(q.buf)-1)
	h := q.buf[i]
	q.buf[i] = nil
	q.head++
	q.mu.Unlock()
	return h
}

// Runtime is a fixed-size worker pool executing dependency-ordered tasks.
type Runtime struct {
	workers int  // run queues; one goroutine each unless inline
	shared  bool // process-wide pool: Close drains instead of shutting down
	inline  bool // no worker goroutines (see NewInline)

	qs []wq // per-worker run queues (priority-0 tasks)

	gmu   sync.Mutex
	gheap taskHeap // tasks with non-zero priority
	npos  atomic.Int64

	seq     atomic.Uint64
	avail   atomic.Int64 // queued-and-ready task count across all queues
	rr      atomic.Uint64
	pending atomic.Int64
	closed  atomic.Bool

	sleepMu   sync.Mutex
	sleepCond *sync.Cond
	sleepers  atomic.Int32 // updated under sleepMu

	qmu      sync.Mutex
	qcond    *sync.Cond
	qwaiters atomic.Int32 // updated under qmu

	procs int // GOMAXPROCS at construction: caps useful wake-ups and pollers

	times   []StateTimes
	timesMu []sync.Mutex

	// Scheduler counters (see Counters): bumped on idle transitions and
	// steals only, never on the home-queue fast path.
	parks, wakes, steals, pollHits atomic.Int64

	panicOnce sync.Once
	panicked  atomic.Pointer[panicBox]
}

type panicBox struct{ v any }

// New creates a work-stealing runtime with the given number of workers
// (0 means runtime.GOMAXPROCS(0)) and starts them.
func New(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := newRuntime(workers, runtime.GOMAXPROCS(0))
	for w := 0; w < workers; w++ {
		go rt.worker(w)
	}
	return rt
}

// NewInline creates a runtime with no worker goroutines: one run queue,
// drained by whoever waits. Submit and Resubmit enqueue; Wait, WaitAll and
// Quiesce pop and execute in submission order (negative priorities last, as
// on a pool); nothing ever polls, wakes or parks. It serves ONE goroutine
// at a time: a wait with nothing to run and its task unfinished could only
// park, and nobody would wake it, so it panics (inlineParkMsg) instead.
func NewInline() *Runtime {
	rt := newRuntime(1, 1)
	rt.inline = true
	return rt
}

func newRuntime(workers, procs int) *Runtime {
	rt := &Runtime{
		workers: workers,
		procs:   procs,
		qs:      make([]wq, workers),
		times:   make([]StateTimes, workers),
		timesMu: make([]sync.Mutex, workers),
	}
	rt.sleepCond = sync.NewCond(&rt.sleepMu)
	rt.qcond = sync.NewCond(&rt.qmu)
	return rt
}

// NumWorkers returns the pool size: the number of run queues and of worker
// indices a task body can see (1 on an inline runtime, whose one "worker"
// is the waiting goroutine).
func (rt *Runtime) NumWorkers() int { return rt.workers }

// IsShared reports whether this runtime is the process-wide shared pool
// (see Shared), whose Close drains instead of shutting workers down.
func (rt *Runtime) IsShared() bool { return rt.shared }

var (
	sharedMu sync.Mutex
	sharedRT *Runtime
)

// Shared returns the process-wide shared worker pool, creating it with the
// given size (0 means GOMAXPROCS) on first call. Every later call returns
// the SAME pool regardless of the requested size: one process gets one
// pool, so concurrent solver instances never oversubscribe the machine
// with per-instance worker sets (the pre-serving bug: registry.New built
// a fresh pool per instance even when Workers matched an existing one).
// Close on the shared pool is a no-op; use CloseShared to actually shut
// it down (tests, process exit).
func Shared(workers int) *Runtime {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedRT == nil || sharedRT.closed.Load() {
		sharedRT = New(workers)
		sharedRT.shared = true
	}
	return sharedRT
}

// SharedSize returns the worker count of the shared pool, or 0 when no
// shared pool exists yet — callers can report whether a Workers request
// was honoured or coalesced onto an existing pool.
func SharedSize() int {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedRT == nil || sharedRT.closed.Load() {
		return 0
	}
	return sharedRT.workers
}

// SharedCounters returns the scheduler counters of the shared pool, or
// zeros when no shared pool exists: reading them never creates one.
func SharedCounters() Counters {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedRT == nil || sharedRT.closed.Load() {
		return Counters{}
	}
	return sharedRT.Counters()
}

// CloseShared shuts the process-wide pool down (if one exists) after all
// submitted work completes. The next Shared call creates a fresh pool.
func CloseShared() {
	sharedMu.Lock()
	rt := sharedRT
	sharedRT = nil
	sharedMu.Unlock()
	if rt != nil {
		rt.shared = false
		rt.Close()
	}
}

// Submit schedules a task, returning its handle. Submitting after Close
// panics.
func (rt *Runtime) Submit(spec TaskSpec) *Handle {
	h := rt.NewTask(spec)
	rt.start(h, spec.After, -1, true)
	return h
}

// NewTask binds a task body without submitting it — the building block of
// prepared (replayed) task graphs. Run it with Resubmit. A never-submitted
// task counts as finished: using it as a dependency is a no-op edge.
func (rt *Runtime) NewTask(spec TaskSpec) *Handle {
	if spec.Run == nil {
		panic("taskrt: TaskSpec.Run is nil")
	}
	h := &Handle{rt: rt, priority: spec.Priority, home: spec.Home, label: spec.Label, run: spec.Run}
	h.done = true // a fresh prepared task counts as "finished": resubmittable
	h.doneA.Store(true)
	return h
}

// Resubmit replays a finished (or never-run) handle with fresh
// dependencies: same body, label and priority, zero allocations. It
// panics if the previous submission has not finished — waiting on the
// handle first is the caller's job.
func (rt *Runtime) Resubmit(h *Handle, after []*Handle) {
	rt.resubmitOne(h, after)
	rt.wake(1)
}

// ResubmitAll replays a batch of finished handles with one shared
// dependency list and a single wake-up pass — the batched steady-state
// submission of a whole chunked operation.
func (rt *Runtime) ResubmitAll(hs []*Handle, after []*Handle) {
	for _, h := range hs {
		rt.resubmitOne(h, after)
	}
	rt.wake(len(hs))
}

func (rt *Runtime) resubmitOne(h *Handle, after []*Handle) {
	if h.rt != rt {
		panic("taskrt: Resubmit of a task from a different runtime")
	}
	h.mu.Lock()
	if h.inflight {
		h.mu.Unlock()
		panic("taskrt: Resubmit of an in-flight task")
	}
	h.mu.Unlock()
	rt.start(h, after, -1, false)
}

// start registers h's dependencies and enqueues it when ready. enqWorker
// is the preferred run queue (-1: round-robin).
func (rt *Runtime) start(h *Handle, after []*Handle, enqWorker int, wake bool) {
	if rt.closed.Load() {
		panic("taskrt: Submit after Close")
	}
	for _, pred := range after {
		if pred != nil && pred.rt != rt {
			panic("taskrt: dependency from a different runtime")
		}
	}
	h.mu.Lock()
	h.done = false
	h.inflight = true
	h.panicV = nil
	h.doneA.Store(false)
	h.mu.Unlock()
	h.seq = rt.seq.Add(1)
	rt.pending.Add(1)
	// The extra +1 keeps h unready until registration completes, even if
	// every predecessor finishes mid-loop.
	h.npred.Store(1)
	for _, pred := range after {
		if pred == nil {
			continue
		}
		pred.mu.Lock()
		if !pred.done {
			pred.succs = append(pred.succs, h)
			h.npred.Add(1)
		}
		pred.mu.Unlock()
	}
	if h.npred.Add(-1) == 0 {
		rt.enqueue(h, enqWorker, wake)
	}
}

// enqueue places a ready task on a run queue. worker is the preferred
// queue (-1: round-robin across queues).
func (rt *Runtime) enqueue(h *Handle, worker int, wake bool) {
	if h.priority != 0 {
		rt.gmu.Lock()
		heap.Push(&rt.gheap, h)
		if h.priority > 0 {
			rt.npos.Add(1)
		}
		rt.gmu.Unlock()
	} else {
		if h.home > 0 {
			// Affinity hint: always land on the home queue, overriding
			// both round-robin and the releasing worker's locality.
			worker = (h.home - 1) % rt.workers
		} else if worker < 0 {
			worker = int(rt.rr.Add(1) % uint64(rt.workers))
		}
		rt.qs[worker].push(h)
	}
	rt.avail.Add(1)
	if wake {
		rt.wake(1)
	}
}

// pollBudget bounds how long an idle thread polls before it parks. It is
// about one park→unpark round trip — the competitive bound: polling that
// long costs at most what the park it may save would have cost, and a
// hand-off that takes longer to arrive was not going to be fast anyway.
// BenchmarkParkUnpark measures the round trip through a sync.Cond (what a
// parked worker or waiter sleeps on) once the sleeper's processor has gone
// idle: ≈95 µs from signal to sleeper running on the 2-vCPU reference
// host, ≈10 µs of it spent by the waker inside the signal — against ≈1 µs
// per phase boundary when the other side polls (BenchmarkPhaseHandoff).
// A solver iteration paid that 3–5 times per ≈100 µs of kernel work. End
// to end the gain is flat from a fifth of this budget to twice it
// (dist-cg solve_ms_p50 139 / 108 / 100 / 101 / 113 ms at 5 / 20 / 50 /
// 100 / 200 µs, against 172 ms without polling), so it is a constant, not
// a setting.
const pollBudget = 100 * time.Microsecond

// pollYield is the number of polls between two yields to the Go
// scheduler. A poll is a load of taskrt's own atomics and touches nothing
// shared with the Go scheduler; a yield lets any runnable goroutine
// (another coordinator, a timer, a surplus worker) have the processor,
// and is also where the clock is read. Yielding only every pollYield-th
// poll keeps a pool's worth of idle workers from serialising on the Go
// scheduler's lock.
const pollYield = 64

// poll spins until ready() holds or pollBudget has passed, and reports
// whether it held. Callers park when it reports false: poll sits entirely
// before their publish-then-recheck protocols, so it cannot lose a
// wake-up.
func (rt *Runtime) poll(ready func() bool) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if ready() {
			rt.pollHits.Add(1)
			return true
		}
		if i%pollYield == 0 {
			runtime.Gosched()
			if time.Since(start) > pollBudget {
				return false
			}
		}
	}
}

// await is the one way a thread waits for tasks: until done() holds it
// HELPS — pops and executes ready tasks itself (help-first taskwait, as in
// OmpSs/TBB) — polls while nothing is ready, and parks through park()
// once the poll budget is spent. When cores are oversubscribed helping
// collapses the dependent waves of an iteration into the waiting thread
// with no scheduler round-trips, and on free cores the coordinator simply
// contributes. Helpers run task bodies with worker index 0 (no task in
// this codebase keys scratch off the index) and their execution time
// accrues to worker 0's Useful clock, so Table 3 reads worker 0 as
// "worker 0 plus the coordinating thread's team contribution". With one
// processor nothing is polled: the whole graph runs inline right here.
func (rt *Runtime) await(done func() bool, park func()) {
	var useful time.Duration
	ready := func() bool { return done() || rt.avail.Load() > 0 }
	for !done() {
		if rt.avail.Load() > 0 {
			if t := rt.tryPop(0); t != nil {
				t0 := time.Now()
				rt.execute(t, 0)
				useful += time.Since(t0)
			}
			continue
		}
		if rt.procs > 1 && rt.poll(ready) {
			continue
		}
		if rt.avail.Load() == 0 {
			if rt.inline {
				panic(inlineParkMsg)
			}
			park()
		}
	}
	if useful > 0 {
		rt.timesMu[0].Lock()
		rt.times[0].Useful += useful
		rt.timesMu[0].Unlock()
	}
	// With one processor wake rouses nobody, so ready tasks reach a thread
	// only through a waiter. A waiter that leaves while some remain — a
	// second coordinator's, released by a task this one ran for it — hands
	// them to a worker: their owner may already be parked on a handle,
	// where no submission will ever wake it.
	if rt.procs == 1 && rt.avail.Load() > 0 && rt.sleepers.Load() > 0 {
		rt.sleepMu.Lock()
		rt.sleepCond.Signal()
		rt.sleepMu.Unlock()
	}
}

const inlineParkMsg = "taskrt: wait on an inline runtime would park: the task is not ready and there is no worker to run what it waits for (a runtime from NewInline serves one goroutine at a time)"

// wake rouses up to n sleeping workers, capped at GOMAXPROCS-1: the
// thread that will Wait on the work helps execute it (see await), so
// rousing more workers than there are spare processors only adds
// context-switch churn — on a single-processor host the whole graph runs
// inline in the waiter and the workers stay parked (but see the hand-off
// at the end of await). While every worker is hot (running or polling)
// this is one atomic load.
func (rt *Runtime) wake(n int) {
	if n = min(n, rt.procs-1); n <= 0 || rt.sleepers.Load() == 0 {
		return
	}
	rt.sleepMu.Lock()
	n = min(n, int(rt.sleepers.Load()))
	for i := 0; i < n; i++ {
		rt.sleepCond.Signal()
	}
	rt.wakes.Add(int64(n))
	rt.sleepMu.Unlock()
}

// tryPop finds the next task for worker w: positive-priority heap tasks
// first, then the worker's own queue, then stealing from peers, then the
// heap's leftovers (the negative-priority overlapped recoveries).
func (rt *Runtime) tryPop(w int) *Handle {
	if rt.npos.Load() > 0 {
		if h := rt.popGlobal(true); h != nil {
			return h
		}
	}
	if h := rt.qs[w].pop(); h != nil {
		rt.avail.Add(-1)
		return h
	}
	for i := 1; i < rt.workers; i++ {
		if h := rt.qs[(w+i)%rt.workers].pop(); h != nil {
			rt.avail.Add(-1)
			rt.steals.Add(1)
			return h
		}
	}
	return rt.popGlobal(false)
}

func (rt *Runtime) popGlobal(onlyPositive bool) *Handle {
	rt.gmu.Lock()
	if len(rt.gheap) == 0 || (onlyPositive && rt.gheap[0].priority <= 0) {
		rt.gmu.Unlock()
		return nil
	}
	h := heap.Pop(&rt.gheap).(*Handle)
	if h.priority > 0 {
		rt.npos.Add(-1)
	}
	rt.gmu.Unlock()
	rt.avail.Add(-1)
	return h
}

// Wait blocks until the most recent submission of the task has finished,
// helping and polling before it parks (see await). If its body panicked,
// Wait panics with the same value.
func (rt *Runtime) Wait(h *Handle) {
	rt.await(h.doneA.Load, h.park)
	if rt.panicked.Load() != nil {
		h.raise()
	}
}

// WaitAll blocks until all listed tasks have finished: one help/poll/park
// loop over the batch, so a phase boundary is one wait however many
// chunks the phase has. Nil handles are ignored and a handle that was
// never submitted counts as finished, so a prebuilt list may name tasks a
// given replay leaves out. Once every task finished, WaitAll panics with
// the value of the first listed task whose body panicked.
func (rt *Runtime) WaitAll(hs []*Handle) {
	i := 0
	rt.await(func() bool {
		for i < len(hs) && (hs[i] == nil || hs[i].doneA.Load()) {
			i++
		}
		return i == len(hs)
	}, func() { hs[i].park() })
	if rt.panicked.Load() != nil { // a body on this runtime ever panicked
		for _, h := range hs {
			if h != nil {
				h.raise()
			}
		}
	}
}

// raise re-raises the panic of the task's finished submission, if any.
func (h *Handle) raise() {
	if p := h.panicV; p != nil {
		panic(p)
	}
}

// park blocks until the task has finished.
func (h *Handle) park() {
	h.mu.Lock()
	if h.cond == nil {
		h.cond = sync.NewCond(&h.mu)
	}
	for !h.done {
		h.rt.parks.Add(1)
		h.cond.Wait()
	}
	h.mu.Unlock()
}

// Quiesce blocks until every submitted task has finished. It panics with
// the value of the first task body that ever panicked on the runtime: a
// barrier over every tenant's work, for a runtime with one owner. Like
// Wait, it helps and polls before parking.
func (rt *Runtime) Quiesce() {
	rt.await(func() bool { return rt.pending.Load() == 0 }, func() {
		rt.qmu.Lock()
		rt.qwaiters.Add(1)
		for rt.pending.Load() > 0 {
			rt.parks.Add(1)
			rt.qcond.Wait()
		}
		rt.qwaiters.Add(-1)
		rt.qmu.Unlock()
	})
	if p := rt.panicked.Load(); p != nil {
		panic(p.v)
	}
}

// Close shuts the workers down after all submitted work completes.
// The runtime cannot be reused. On the process-wide shared pool (see
// Shared) Close is a no-op: a solver that waited on its own handles has
// nothing left to drain, and a global Quiesce would barrier on every
// concurrent solve's work. Use CloseShared to really shut it down.
func (rt *Runtime) Close() {
	if rt.shared {
		return
	}
	rt.Quiesce()
	rt.closed.Store(true)
	rt.sleepMu.Lock()
	rt.sleepCond.Broadcast()
	rt.sleepMu.Unlock()
}

// Counters are the scheduler's cumulative event counts: what the idle
// path did, which the state clocks cannot show (polling and sleeping are
// both Idle there).
type Counters struct {
	Parks    int64 `json:"parks"`     // times a worker or a waiting thread went to sleep
	Wakes    int64 `json:"wakes"`     // sleeping workers roused because work arrived
	Steals   int64 `json:"steals"`    // tasks taken from another worker's queue
	PollHits int64 `json:"poll_hits"` // polls that ended in work or completion: parks avoided
}

// Counters returns a snapshot of the scheduler counters.
func (rt *Runtime) Counters() Counters {
	return Counters{
		Parks:    rt.parks.Load(),
		Wakes:    rt.wakes.Load(),
		Steals:   rt.steals.Load(),
		PollHits: rt.pollHits.Load(),
	}
}

// Sub returns the events between an earlier snapshot o and c.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Parks:    c.Parks - o.Parks,
		Wakes:    c.Wakes - o.Wakes,
		Steals:   c.Steals - o.Steals,
		PollHits: c.PollHits - o.PollHits,
	}
}

// WorkerTimes returns a snapshot of the cumulative per-worker state
// clocks.
func (rt *Runtime) WorkerTimes() []StateTimes {
	out := make([]StateTimes, rt.workers)
	for w := 0; w < rt.workers; w++ {
		rt.timesMu[w].Lock()
		out[w] = rt.times[w]
		rt.timesMu[w].Unlock()
	}
	return out
}

// TotalTimes sums the per-worker clocks.
func (rt *Runtime) TotalTimes() StateTimes {
	var t StateTimes
	for _, w := range rt.WorkerTimes() {
		t.Useful += w.Useful
		t.Runtime += w.Runtime
		t.Idle += w.Idle
	}
	return t
}

// ResetTimes zeroes the state clocks (between experiment phases).
func (rt *Runtime) ResetTimes() {
	for w := 0; w < rt.workers; w++ {
		rt.timesMu[w].Lock()
		rt.times[w] = StateTimes{}
		rt.timesMu[w].Unlock()
	}
}

// ParallelFor strip-mines the half-open range [0, n) into the given number
// of chunks and submits one task per chunk in a single batch (one
// registration pass and one wake-up, not one lock round-trip per chunk).
// fn receives the chunk's element range. Returns the handles of all chunk
// tasks; they share the given label.
func (rt *Runtime) ParallelFor(n, chunks int, label string, after []*Handle, priority int, fn func(worker, lo, hi int)) []*Handle {
	if chunks <= 0 {
		chunks = rt.workers
	}
	if chunks > n && n > 0 {
		chunks = n
	}
	handles := make([]*Handle, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		if lo >= hi {
			continue
		}
		h := rt.NewTask(TaskSpec{
			Run:      func(worker int) { fn(worker, lo, hi) },
			Priority: priority,
			Label:    label,
		})
		rt.start(h, after, -1, false)
		handles = append(handles, h)
	}
	rt.wake(len(handles))
	return handles
}

func (rt *Runtime) worker(w int) {
	var useful, overhead, idle time.Duration
	flush := func() {
		rt.timesMu[w].Lock()
		rt.times[w].Useful += useful
		rt.times[w].Runtime += overhead
		rt.times[w].Idle += idle
		rt.timesMu[w].Unlock()
		useful, overhead, idle = 0, 0, 0
	}
	for {
		tSched := time.Now()
		h := rt.tryPop(w)
		if h == nil {
			// Account the scan as scheduler time and the wait — polling
			// and sleeping alike: both are waiting for work, i.e. load
			// imbalance — as idle.
			tIdle := time.Now()
			overhead += tIdle.Sub(tSched)
			exit := rt.idle()
			idle += time.Since(tIdle)
			if exit {
				flush()
				return
			}
			continue
		}
		tRun := time.Now()
		overhead += tRun.Sub(tSched)

		rt.execute(h, w)

		tDone := time.Now()
		useful += tDone.Sub(tRun)
		if useful+overhead+idle > time.Millisecond {
			flush()
		}
	}
}

// idle is where a worker that found nothing to run waits for work: it
// polls, then parks. It reports whether the pool closed with nothing left.
// At most GOMAXPROCS-1 awake workers poll — the cap wake applies, for the
// same reason — so on a single processor, and for every worker a pool has
// beyond the spare processors, idle parks at once.
func (rt *Runtime) idle() (exit bool) {
	if rt.workers-int(rt.sleepers.Load()) <= rt.procs-1 {
		hit := rt.poll(func() bool { return rt.avail.Load() > 0 || rt.closed.Load() })
		if hit && !rt.closed.Load() {
			return false
		}
	}
	rt.sleepMu.Lock()
	rt.sleepers.Add(1)
	for rt.avail.Load() == 0 && !rt.closed.Load() {
		rt.parks.Add(1)
		rt.sleepCond.Wait()
	}
	rt.sleepers.Add(-1)
	exit = rt.closed.Load() && rt.avail.Load() == 0
	rt.sleepMu.Unlock()
	return exit
}

func (rt *Runtime) execute(h *Handle, w int) {
	defer func() {
		if r := recover(); r != nil {
			h.panicV = r
			rt.panicOnce.Do(func() {
				rt.panicked.Store(&panicBox{v: r})
			})
		}
		rt.finish(h, w)
	}()
	h.run(w)
}

func (rt *Runtime) finish(h *Handle, w int) {
	h.mu.Lock()
	h.done = true
	h.inflight = false
	h.doneA.Store(true)
	// Successor release runs under h.mu: once done is set, a concurrent
	// Resubmit could re-register edges into succs, and the truncation
	// below must not race with that. Queue pushes take no handle locks,
	// so there is no lock-order hazard.
	released := 0
	for i, s := range h.succs {
		if s.npred.Add(-1) == 0 {
			rt.enqueue(s, w, false)
			released++
		}
		h.succs[i] = nil
	}
	h.succs = h.succs[:0]
	if h.cond != nil {
		h.cond.Broadcast()
	}
	h.mu.Unlock()
	if released > 1 {
		rt.wake(released - 1) // this worker takes one itself
	} else if released == 1 && rt.sleepers.Load() > 0 {
		rt.wake(1)
	}
	if rt.pending.Add(-1) == 0 && rt.qwaiters.Load() > 0 {
		rt.qmu.Lock()
		rt.qcond.Broadcast()
		rt.qmu.Unlock()
	}
}

// taskHeap orders ready tasks by descending priority, then FIFO.
type taskHeap []*Handle

func (th taskHeap) Len() int { return len(th) }
func (th taskHeap) Less(i, j int) bool {
	if th[i].priority != th[j].priority {
		return th[i].priority > th[j].priority
	}
	return th[i].seq < th[j].seq
}
func (th taskHeap) Swap(i, j int) { th[i], th[j] = th[j], th[i] }
func (th *taskHeap) Push(x any)   { *th = append(*th, x.(*Handle)) }
func (th *taskHeap) Pop() any {
	old := *th
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*th = old[:n-1]
	return x
}
