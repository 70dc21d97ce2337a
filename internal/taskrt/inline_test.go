package taskrt

import (
	"runtime"
	"slices"
	"testing"
)

// TestInlineStartsNoGoroutine pins what NewInline is for: neither
// constructing the runtime nor replaying graphs on it starts a goroutine,
// and every task ran by the time its wait returns.
func TestInlineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewInline()
	ran := 0
	a := make([]*Handle, 3)
	for i := range a {
		a[i] = rt.NewTask(TaskSpec{Run: func(w int) {
			if w != 0 {
				t.Errorf("task saw worker %d on an inline runtime", w)
			}
			ran++
		}})
	}
	last := rt.NewTask(TaskSpec{Run: func(int) { ran++ }, Priority: -1})
	for i := 0; i < 1000; i++ {
		rt.ResubmitAll(a, nil)
		rt.Resubmit(last, a)
		rt.Wait(last)
	}
	if ran != 4000 {
		t.Fatalf("ran %d task bodies, want 4000", ran)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before NewInline, %d after 1000 replayed graphs", before, after)
	}
	if c := rt.Counters(); c != (Counters{}) {
		t.Fatalf("an inline runtime polled, parked, woke or stole: %+v", c)
	}
	if rt.NumWorkers() != 1 {
		t.Fatalf("NumWorkers = %d, want 1", rt.NumWorkers())
	}
	rt.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before NewInline, %d after Close", before, after)
	}
}

// TestInlineOrdering: dependencies hold, ready default-priority tasks run
// in submission order, a positive priority runs first and a negative one
// (the overlapped recovery of AFEIR) after every default task — including
// the ones that only became ready later.
func TestInlineOrdering(t *testing.T) {
	rt := NewInline()
	defer rt.Close()
	var order []string
	rec := func(name string) func(int) {
		return func(int) { order = append(order, name) }
	}
	a := rt.Submit(TaskSpec{Run: rec("a")})
	rec0 := rt.Submit(TaskSpec{Run: rec("recovery"), Priority: -1})
	b := rt.Submit(TaskSpec{Run: rec("b")})
	c := rt.Submit(TaskSpec{Run: rec("c"), After: []*Handle{b}}) // ready only once b ran
	d := rt.Submit(TaskSpec{Run: rec("d"), After: []*Handle{a}})
	urgent := rt.Submit(TaskSpec{Run: rec("urgent"), Priority: 1})
	rt.WaitAll([]*Handle{a, rec0, b, c, d, urgent})
	want := []string{"urgent", "a", "b", "d", "c", "recovery"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	rt.Quiesce()
}

// TestInlineWaitThatWouldParkPanics: a wait that finds nothing to run and
// its task unfinished cannot be woken by anybody, so it is a named panic
// and not a hang. The two ways to get there are a task waiting for its own
// successor, and a second goroutine on the runtime.
func TestInlineWaitThatWouldParkPanics(t *testing.T) {
	mustPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != inlineParkMsg {
				t.Fatalf("recovered %v, want %q", r, inlineParkMsg)
			}
		}()
		f()
		t.Fatal("the wait returned")
	}
	t.Run("waiting for a successor", func(t *testing.T) {
		rt := NewInline()
		var succ *Handle
		pred := rt.NewTask(TaskSpec{Run: func(int) { rt.Wait(succ) }})
		succ = rt.NewTask(TaskSpec{Run: func(int) {}})
		rt.Resubmit(pred, nil)
		rt.Resubmit(succ, []*Handle{pred})
		rt.Wait(succ) // pred's body panics; succ is released and runs
		mustPanic(t, rt.Quiesce)
	})
	t.Run("second goroutine", func(t *testing.T) {
		rt := NewInline()
		started, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
		h := rt.Submit(TaskSpec{Run: func(int) { close(started); <-release }})
		go func() { rt.Wait(h); close(finished) }()
		<-started
		mustPanic(t, func() { rt.Wait(h) })
		close(release)
		<-finished
		rt.Close()
	})
}

// TestInlineCloseDrains: Close runs what is still queued and returns.
func TestInlineCloseDrains(t *testing.T) {
	rt := NewInline()
	ran := 0
	for i := 0; i < 5; i++ {
		rt.Submit(TaskSpec{Run: func(int) { ran++ }})
	}
	rt.Close()
	if ran != 5 {
		t.Fatalf("Close left %d of 5 queued tasks unrun", 5-ran)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close did not panic")
		}
	}()
	rt.Submit(TaskSpec{Run: func(int) {}})
}
