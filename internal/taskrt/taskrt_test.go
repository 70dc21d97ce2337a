package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleTaskRuns(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	var ran atomic.Bool
	h := rt.Submit(TaskSpec{Run: func(int) { ran.Store(true) }, Label: "t"})
	rt.Wait(h)
	if !ran.Load() {
		t.Fatal("task did not run")
	}
	if h.Label() != "t" {
		t.Fatalf("label = %q", h.Label())
	}
}

func TestDependencyOrdering(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	var order []int
	var mu sync.Mutex
	record := func(id int) func(int) {
		return func(int) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	a := rt.Submit(TaskSpec{Run: record(1)})
	b := rt.Submit(TaskSpec{Run: record(2), After: []*Handle{a}})
	c := rt.Submit(TaskSpec{Run: record(3), After: []*Handle{b}})
	rt.Wait(c)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestDiamondDependencies(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	var stage atomic.Int32
	src := rt.Submit(TaskSpec{Run: func(int) { stage.Store(1) }})
	mid1 := rt.Submit(TaskSpec{Run: func(int) {
		if stage.Load() < 1 {
			t.Error("mid1 before src")
		}
	}, After: []*Handle{src}})
	mid2 := rt.Submit(TaskSpec{Run: func(int) {
		if stage.Load() < 1 {
			t.Error("mid2 before src")
		}
	}, After: []*Handle{src}})
	sink := rt.Submit(TaskSpec{Run: func(int) { stage.Store(2) }, After: []*Handle{mid1, mid2}})
	rt.Wait(sink)
	if stage.Load() != 2 {
		t.Fatal("sink did not run")
	}
}

func TestNilDependenciesIgnored(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	h := rt.Submit(TaskSpec{Run: func(int) {}, After: []*Handle{nil, nil}})
	rt.Wait(h)
}

func TestDependencyOnFinishedTask(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	a := rt.Submit(TaskSpec{Run: func(int) {}})
	rt.Wait(a)
	var ran atomic.Bool
	b := rt.Submit(TaskSpec{Run: func(int) { ran.Store(true) }, After: []*Handle{a}})
	rt.Wait(b)
	if !ran.Load() {
		t.Fatal("dependent on finished task never ran")
	}
}

func TestPriorityOrderingOnSingleWorker(t *testing.T) {
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
	// Block the single worker so the queue builds up, then observe the
	// pop order: high priority first, FIFO among equals.
	release := make(chan struct{})
	gate := rt.Submit(TaskSpec{Run: func(int) { <-release }})
	rt.Submit(TaskSpec{Run: rec("low1"), Priority: 0, After: []*Handle{gate}})
	rt.Submit(TaskSpec{Run: rec("high"), Priority: 10, After: []*Handle{gate}})
	rt.Submit(TaskSpec{Run: rec("low2"), Priority: 0, After: []*Handle{gate}})
	close(release)
	rt.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "high" || order[1] != "low1" || order[2] != "low2" {
		t.Fatalf("order = %v", order)
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	n := 1000
	counts := make([]atomic.Int32, n)
	hs := rt.ParallelFor(n, 7, "pf", nil, 0, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i].Add(1)
		}
	})
	rt.WaitAll(hs)
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("element %d covered %d times", i, c)
		}
	}
	if len(hs) != 7 {
		t.Fatalf("chunks = %d, want 7", len(hs))
	}
}

func TestParallelForMoreChunksThanElements(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	var total atomic.Int32
	hs := rt.ParallelFor(3, 10, "pf", nil, 0, func(w, lo, hi int) {
		total.Add(int32(hi - lo))
	})
	rt.WaitAll(hs)
	if total.Load() != 3 {
		t.Fatalf("covered %d elements, want 3", total.Load())
	}
}

func TestParallelForZeroElements(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	hs := rt.ParallelFor(0, 4, "pf", nil, 0, func(w, lo, hi int) {
		t.Error("task ran for empty range")
	})
	rt.WaitAll(hs)
	if len(hs) != 0 {
		t.Fatalf("handles = %d, want 0", len(hs))
	}
}

func TestQuiesceWaitsForAll(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	var done atomic.Int32
	for i := 0; i < 100; i++ {
		rt.Submit(TaskSpec{Run: func(int) {
			time.Sleep(time.Microsecond)
			done.Add(1)
		}})
	}
	rt.Quiesce()
	if done.Load() != 100 {
		t.Fatalf("done = %d, want 100", done.Load())
	}
}

func TestNestedSubmission(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	var leafRan atomic.Bool
	outer := rt.Submit(TaskSpec{Run: func(int) {
		inner := rt.Submit(TaskSpec{Run: func(int) { leafRan.Store(true) }})
		rt.Wait(inner)
	}})
	rt.Wait(outer)
	if !leafRan.Load() {
		t.Fatal("nested task did not run")
	}
}

func TestPanicPropagatesOnQuiesce(t *testing.T) {
	rt := New(2)
	rt.Submit(TaskSpec{Run: func(int) { panic("boom") }})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	rt.Quiesce()
}

func TestPanicDoesNotDeadlockDependents(t *testing.T) {
	rt := New(2)
	a := rt.Submit(TaskSpec{Run: func(int) { panic("x") }})
	b := rt.Submit(TaskSpec{Run: func(int) {}, After: []*Handle{a}})
	rt.Wait(b) // must not hang: a's failure still releases b
	func() {
		defer func() { recover() }()
		rt.Quiesce()
	}()
}

// TestWaitRaisesOnlyItsOwnPanic: a panicking body surfaces on the waiter
// of its own handle, with its value, and on nobody else's: a second
// tenant of the same pool waits on its handles undisturbed. Replaying the
// handle clears the panic.
func TestWaitRaisesOnlyItsOwnPanic(t *testing.T) {
	rt := New(2)
	defer func() {
		defer func() { recover() }() // Quiesce in Close re-raises the first panic
		rt.Close()
	}()
	boom := true
	bad := rt.NewTask(TaskSpec{Run: func(int) {
		if boom {
			panic("tenant A")
		}
	}})
	rt.Resubmit(bad, nil)
	other := rt.Submit(TaskSpec{Run: func(int) {}})
	rt.Wait(other) // tenant B
	rt.WaitAll([]*Handle{other, nil})
	func() {
		defer func() {
			if r := recover(); r != "tenant A" {
				t.Fatalf("Wait recovered %v, want tenant A", r)
			}
		}()
		rt.Wait(bad)
		t.Fatal("Wait returned")
	}()
	boom = false
	rt.Resubmit(bad, nil)
	rt.Wait(bad)
}

func TestWorkerTimesAccumulate(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	rt.ParallelFor(8, 8, "sleep", nil, 0, func(w, lo, hi int) {
		time.Sleep(5 * time.Millisecond)
	})
	rt.Quiesce()
	total := rt.TotalTimes()
	if total.Useful < 20*time.Millisecond {
		t.Fatalf("Useful = %v, want >= 20ms", total.Useful)
	}
	rt.ResetTimes()
	total = rt.TotalTimes()
	if total.Useful != 0 || total.Idle != 0 || total.Runtime != 0 {
		t.Fatalf("ResetTimes left %+v", total)
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	rt := New(1)
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic submitting after Close")
		}
	}()
	rt.Submit(TaskSpec{Run: func(int) {}})
}

func TestNilRunPanics(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil Run")
		}
	}()
	rt.Submit(TaskSpec{})
}

func TestCrossRuntimeDependencyPanics(t *testing.T) {
	rt1 := New(1)
	rt2 := New(1)
	defer rt1.Close()
	defer rt2.Close()
	blocker := make(chan struct{})
	h := rt1.Submit(TaskSpec{Run: func(int) { <-blocker }})
	defer close(blocker)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-runtime dependency")
		}
	}()
	rt2.Submit(TaskSpec{Run: func(int) {}, After: []*Handle{h}})
}

func TestManyTasksStress(t *testing.T) {
	rt := New(8)
	defer rt.Close()
	var sum atomic.Int64
	var prev *Handle
	// A chain interleaved with fans: exercises both dependency paths.
	for i := 0; i < 200; i++ {
		fan := rt.ParallelFor(64, 4, "fan", []*Handle{prev}, 0, func(w, lo, hi int) {
			sum.Add(int64(hi - lo))
		})
		prev = rt.Submit(TaskSpec{Run: func(int) {}, After: fan, Label: "join"})
	}
	rt.Wait(prev)
	if sum.Load() != 200*64 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 200*64)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	rt := New(0)
	defer rt.Close()
	if rt.NumWorkers() < 1 {
		t.Fatal("no workers")
	}
}
