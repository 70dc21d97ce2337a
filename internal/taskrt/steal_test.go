package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the work-stealing scheduler additions: handle reuse via
// NewTask/Resubmit, stealing correctness and the negative-priority
// (overlapped recovery) discipline.

func TestResubmitReusesHandle(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	var count atomic.Int32
	h := rt.NewTask(TaskSpec{Run: func(int) { count.Add(1) }, Label: "reused"})
	for i := 0; i < 100; i++ {
		rt.Resubmit(h, nil)
		rt.Wait(h)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d times, want 100", count.Load())
	}
}

func TestResubmitGraphOrdering(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	// A prepared two-stage graph replayed many times: stage B must always
	// observe stage A's write of the same round.
	var stage int32
	a := make([]*Handle, 4)
	b := make([]*Handle, 4)
	for i := range a {
		a[i] = rt.NewTask(TaskSpec{Run: func(int) { atomic.AddInt32(&stage, 1) }, Label: "a"})
		b[i] = rt.NewTask(TaskSpec{Run: func(int) {
			if atomic.LoadInt32(&stage)%4 != 0 {
				t.Error("b ran before all a tasks")
			}
		}, Label: "b"})
	}
	for round := 0; round < 200; round++ {
		rt.ResubmitAll(a, nil)
		rt.ResubmitAll(b, a)
		rt.WaitAll(b)
		if atomic.LoadInt32(&stage) != int32(4*(round+1)) {
			t.Fatalf("round %d: stage = %d", round, stage)
		}
	}
}

func TestResubmitInFlightPanics(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	release := make(chan struct{})
	h := rt.NewTask(TaskSpec{Run: func(int) { <-release }})
	rt.Resubmit(h, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resubmitting an in-flight task")
		}
		close(release)
		rt.Wait(h)
	}()
	rt.Resubmit(h, nil)
}

func TestNeverSubmittedDependencyIsNoOp(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	idle := rt.NewTask(TaskSpec{Run: func(int) {}})
	var ran atomic.Bool
	h := rt.Submit(TaskSpec{Run: func(int) { ran.Store(true) }, After: []*Handle{idle}})
	rt.Wait(h)
	if !ran.Load() {
		t.Fatal("dependent on never-submitted task never ran")
	}
}

func TestStealingSpreadsWork(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	// Submit a burst from outside the pool: round-robin spreads it over
	// the queues; stealing (or the helping waiter, on single-processor
	// hosts) must run every task exactly once.
	var byWorker [4]atomic.Int32
	for i := 0; i < 256; i++ {
		rt.Submit(TaskSpec{Run: func(w int) {
			for i := 0; i < 1000; i++ {
				_ = i * i
			}
			byWorker[w].Add(1)
		}})
	}
	rt.Quiesce()
	total := int32(0)
	for w := range byWorker {
		total += byWorker[w].Load()
	}
	if total != 256 {
		t.Fatalf("ran %d tasks, want 256", total)
	}
}

func TestNegativePriorityRunsAfterDefaultWork(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	var order []string
	var mu sync.Mutex
	rec := func(name string) func(int) {
		return func(int) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	release := make(chan struct{})
	gate := rt.Submit(TaskSpec{Run: func(int) { <-release }})
	rt.Submit(TaskSpec{Run: rec("recovery"), Priority: -1, After: []*Handle{gate}})
	rt.Submit(TaskSpec{Run: rec("work1"), After: []*Handle{gate}})
	rt.Submit(TaskSpec{Run: rec("work2"), After: []*Handle{gate}})
	close(release)
	rt.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[2] != "recovery" {
		t.Fatalf("order = %v, want recovery last", order)
	}
}

func TestResubmitZeroAllocs(t *testing.T) {
	for name, rt := range map[string]*Runtime{"pool": New(2), "inline": NewInline()} {
		t.Run(name, func(t *testing.T) {
			defer rt.Close()
			a := make([]*Handle, 2)
			b := make([]*Handle, 2)
			for i := range a {
				a[i] = rt.NewTask(TaskSpec{Run: func(int) {}, Label: "a"})
				b[i] = rt.NewTask(TaskSpec{Run: func(int) {}, Label: "b"})
			}
			iter := func() {
				rt.ResubmitAll(a, nil)
				rt.ResubmitAll(b, a)
				rt.WaitAll(b)
			}
			// Warm up lazily-allocated wait conds and queue rings.
			for i := 0; i < 10; i++ {
				iter()
			}
			if allocs := testing.AllocsPerRun(100, iter); allocs > 0 {
				t.Fatalf("steady-state resubmission allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
