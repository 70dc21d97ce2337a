package taskrt

import (
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the idle path: poll-then-park in workers and waiters, the
// batch wait, and shutdown. CI runs them under -race with -cpu 1,2,4.

// within fails the test, with every goroutine's stack, when fn has not
// returned after d — a lost wake-up shows as a hang, not as a wrong value.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatalf("still waiting after %v", d)
	}
}

// busyFor keeps the calling thread on its processor for d, so whether the
// pool is polling, about to park or parked when it returns depends on d
// alone.
func busyFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// eventually polls cond for up to a second.
func eventually(cond func() bool) bool {
	for t0 := time.Now(); time.Since(t0) < time.Second; time.Sleep(pollBudget) {
		if cond() {
			return true
		}
	}
	return cond()
}

func stressRounds(full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// singleProcessorChecks pins the documented one-processor behaviour: the
// waiter ran the whole graph inline, nothing polled and no worker was
// roused.
func singleProcessorChecks(t *testing.T, rt *Runtime) {
	t.Helper()
	if runtime.GOMAXPROCS(0) != 1 {
		return
	}
	if c := rt.Counters(); c.PollHits != 0 || c.Wakes != 0 {
		t.Fatalf("one processor: %+v, want no poll hits and no wakes", c)
	}
}

// TestWakePingPong is the phase-boundary hand-off in its smallest form:
// one task per phase, submit → Wait, from two coordinators sharing the
// pool (as two serve dispatchers do), with seeded pauses of 0–2 poll
// budgets between some rounds so a submission finds the pool polling, on
// its way to sleep, or asleep. A lost wake-up hangs; every task must run
// exactly once.
func TestWakePingPong(t *testing.T) {
	rounds := stressRounds(100000)
	rt := New(2)
	defer rt.Close()
	within(t, 2*time.Minute, func() {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				var ran atomic.Int64
				h := rt.NewTask(TaskSpec{Run: func(int) { ran.Add(1) }, Label: "ping"})
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < rounds/2; i++ {
					rt.Resubmit(h, nil)
					rt.Wait(h)
					if got := ran.Load(); got != int64(i+1) {
						t.Errorf("round %d: task ran %d times", i, got)
						return
					}
					if rng.Intn(8) == 0 {
						busyFor(time.Duration(rng.Int63n(int64(2 * pollBudget))))
					}
				}
			}(int64(c))
		}
		wg.Wait()
	})
	singleProcessorChecks(t, rt)
}

// TestParkedCoordinatorIsHandedWorkOnOneProcessor: on one processor no
// submission rouses a worker, so when coordinator A, helping, runs B's
// task and thereby releases B's next one just as A's own wait ends, A
// must hand the released task to a worker — B is parked on its handle and
// nothing else would ever run it. The pool is built as a one-processor
// pool whatever GOMAXPROCS is (as the shared pool is when it outlives a
// `go test -cpu 1,2` switch).
func TestParkedCoordinatorIsHandedWorkOnOneProcessor(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	rt := New(1)
	runtime.GOMAXPROCS(procs)
	defer rt.Close()
	if !eventually(func() bool { return rt.sleepers.Load() == 1 }) {
		t.Fatal("the worker never parked")
	}
	started, release := make(chan struct{}), make(chan struct{})
	h1 := rt.Submit(TaskSpec{Label: "first", Run: func(int) { close(started); <-release }})
	var ran atomic.Bool
	h2 := rt.Submit(TaskSpec{Label: "second", After: []*Handle{h1}, Run: func(int) { ran.Store(true) }})
	within(t, 30*time.Second, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); rt.Wait(h1) }() // A: runs "first" inline
		<-started
		parks := rt.Counters().Parks
		go func() { defer wg.Done(); rt.Wait(h2) }() // B: nothing ready, parks on h2
		if !eventually(func() bool { return rt.Counters().Parks > parks }) {
			t.Error("B never parked")
		}
		close(release)
		wg.Wait()
	})
	if !ran.Load() {
		t.Fatal("the second task never ran")
	}
}

// TestWakeFanInWaitAll is the same stress on a fan-out/fan-in phase whose
// tasks sit on the worker queues and on both sides of the shared heap
// (negative priority is the path AFEIR's overlapped recoveries take),
// waited for as one batch.
func TestWakeFanInWaitAll(t *testing.T) {
	rounds := stressRounds(20000)
	rt := New(3)
	defer rt.Close()
	var ran [7]atomic.Int64
	var fan, all []*Handle
	for i, prio := range []int{0, -1, 0, 2, -3, 0} {
		i := i
		fan = append(fan, rt.NewTask(TaskSpec{Run: func(int) { ran[i].Add(1) }, Priority: prio, Home: i % 2}))
	}
	join := rt.NewTask(TaskSpec{Run: func(int) {
		for i := range fan {
			if ran[i].Load() != ran[6].Load()+1 {
				t.Errorf("join ran before fan task %d", i)
			}
		}
		ran[6].Add(1)
	}, Priority: -1, Label: "join"})
	all = append(append(all, fan...), join)
	rng := rand.New(rand.NewSource(2))
	within(t, 2*time.Minute, func() {
		for r := 0; r < rounds; r++ {
			rt.ResubmitAll(fan, nil)
			rt.Resubmit(join, fan)
			rt.WaitAll(all)
			for i := range ran {
				if got := ran[i].Load(); got != int64(r+1) {
					t.Errorf("round %d: task %d ran %d times", r, i, got)
					return
				}
			}
			if rng.Intn(8) == 0 {
				busyFor(time.Duration(rng.Int63n(int64(2 * pollBudget))))
			}
		}
	})
	singleProcessorChecks(t, rt)
}

// TestWakeWithoutWaiter: a submitter that never waits — it hands tasks to
// the pool and blocks elsewhere — still gets a worker per task while
// processors are free. Two tasks submitted 5 ms apart, so the second finds
// one worker busy and the other asleep, must overlap: each waits for the
// other to start.
func TestWakeWithoutWaiter(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one processor: work runs inline in the waiter")
	}
	rt := New(2)
	defer rt.Close()
	if !eventually(func() bool { return int(rt.sleepers.Load()) == rt.workers }) {
		t.Fatal("fresh pool never parked")
	}
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	defer close(release) // before Close drains
	task := TaskSpec{Run: func(int) {
		started.Done()
		<-release
	}}
	rt.Submit(task)
	time.Sleep(5 * time.Millisecond)
	rt.Submit(task)
	within(t, 10*time.Second, started.Wait)
}

// TestWaitAllSemantics covers what a prebuilt phase list may contain:
// nil entries, finished tasks, tasks this replay never submitted, and
// tasks that finish in the reverse of list order.
func TestWaitAllSemantics(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	within(t, time.Minute, func() {
		rt.WaitAll(nil)
		rt.WaitAll([]*Handle{nil, nil})

		finished := rt.Submit(TaskSpec{Run: func(int) {}})
		rt.Wait(finished)
		never := rt.NewTask(TaskSpec{Run: func(int) { t.Error("never-submitted task ran") }})
		rt.WaitAll([]*Handle{finished, nil, never})

		// A chain listed head last: hs[0] is the last to finish.
		var order []int
		chain := make([]*Handle, 4)
		for i := len(chain) - 1; i >= 0; i-- {
			i := i
			var after []*Handle
			if i < len(chain)-1 {
				after = []*Handle{chain[i+1]}
			}
			chain[i] = rt.Submit(TaskSpec{Run: func(int) {
				busyFor(pollBudget / 2)
				order = append(order, i) // chained: no two run at once
			}, After: after})
		}
		rt.WaitAll(append([]*Handle{nil, never}, chain...))
		if len(order) != 4 || order[0] != 3 || order[3] != 0 {
			t.Errorf("chain order = %v, want 3 2 1 0", order)
		}
		for _, h := range chain {
			if !h.Done() {
				t.Error("WaitAll returned before every task finished")
			}
		}
	})
}

// TestWaitAllPanicSurfacesOnQuiesce: a panicking task in a batch still
// counts as finished for WaitAll, which re-raises its value once the whole
// batch finished, and the value also surfaces from Quiesce.
func TestWaitAllPanicSurfacesOnQuiesce(t *testing.T) {
	rt := New(2)
	hs := []*Handle{
		rt.Submit(TaskSpec{Run: func(int) {}}),
		rt.Submit(TaskSpec{Run: func(int) { panic("boom") }}),
		rt.Submit(TaskSpec{Run: func(int) {}}),
	}
	within(t, time.Minute, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("WaitAll recovered %v, want boom", r)
			}
			for _, h := range hs {
				if !h.Done() {
					t.Error("WaitAll raised before every task finished")
				}
			}
		}()
		rt.WaitAll(hs)
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	rt.Quiesce()
}

// TestCloseStopsPollingWorkers: Close must not wait out a poll, and the
// workers — polling or parked when it came — must all exit. A private
// pool is built and closed per request by the distributed solvers.
func TestCloseStopsPollingWorkers(t *testing.T) {
	closeFast := func(t *testing.T, open func() *Runtime, shut func(*Runtime)) {
		before := runtime.NumGoroutine()
		best := time.Hour
		for trial := 0; trial < 5; trial++ {
			rt := open()
			rt.WaitAll(rt.ParallelFor(64, 8, "warm", nil, 0, func(_, _, _ int) {}))
			t0 := time.Now()
			shut(rt) // workers are polling, or just parked
			best = min(best, time.Since(t0))
		}
		// Best of five: one slow trial is the host, five are the code.
		if best > 10*pollBudget {
			t.Errorf("Close took %v at best, want under %v", best, 10*pollBudget)
		}
		if !eventually(func() bool { return runtime.NumGoroutine() <= before }) {
			t.Errorf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
	}
	t.Run("private", func(t *testing.T) {
		closeFast(t, func() *Runtime { return New(4) }, (*Runtime).Close)
	})
	t.Run("shared", func(t *testing.T) {
		CloseShared()
		closeFast(t, func() *Runtime { return Shared(4) }, func(*Runtime) { CloseShared() })
	})
}

// TestPollBudgetBoundsIdleSpin: with nothing submitted a worker polls for
// one budget at most and then sleeps until work arrives, however long
// that takes; and a task blocked on something outside the pool does not
// keep its waiter or the other workers spinning.
func TestPollBudgetBoundsIdleSpin(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	allParked := func() bool { return int(rt.sleepers.Load()) == rt.workers }
	if !eventually(allParked) {
		t.Fatalf("fresh pool: %d of %d workers parked", rt.sleepers.Load(), rt.workers)
	}
	release := make(chan struct{})
	h := rt.Submit(TaskSpec{Run: func(int) { <-release }})
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		rt.Wait(h)
	}()
	// A worker or the waiter holds the task; every other worker must end
	// up asleep all the same.
	if !eventually(func() bool { return int(rt.sleepers.Load()) >= rt.workers-1 }) {
		t.Fatalf("pool still polling around a blocked task: %d of %d workers parked", rt.sleepers.Load(), rt.workers)
	}
	close(release)
	within(t, time.Minute, func() { <-waited })
}

// TestSharedCountersDoesNotCreatePool: reading the shared pool's counters
// is an observation; with no pool it reports zeros and starts nothing.
func TestSharedCountersDoesNotCreatePool(t *testing.T) {
	CloseShared()
	if c := SharedCounters(); c != (Counters{}) {
		t.Fatalf("no pool: %+v, want zeros", c)
	}
	if n := SharedSize(); n != 0 {
		t.Fatalf("SharedCounters created a pool of %d workers", n)
	}
	rt := Shared(2)
	defer CloseShared()
	rt.Wait(rt.Submit(TaskSpec{Run: func(int) {}}))
	eventually(func() bool { return SharedCounters().Parks > 0 })
	if got, want := SharedCounters(), rt.Counters(); got.Parks == 0 || got.Parks > want.Parks {
		t.Fatalf("SharedCounters = %+v, pool has %+v", got, want)
	}
}
