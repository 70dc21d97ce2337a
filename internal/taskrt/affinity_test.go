package taskrt

import (
	"sync/atomic"
	"testing"
)

// TestHomeRouting pins the queue-placement rule: a Home hint always lands
// the ready task on the home worker's queue (modulo pool size), and
// homeless tasks keep the releasing-worker / round-robin placement.
func TestHomeRouting(t *testing.T) {
	rt := &Runtime{workers: 3, qs: make([]wq, 3)}
	h := &Handle{rt: rt, home: HomeWorker(2)}
	rt.enqueue(h, -1, false)
	if got := rt.qs[2].pop(); got != h {
		t.Fatalf("homed task not on its queue")
	}
	// An over-range home wraps, so rank→worker assignment never needs to
	// know the pool size.
	h2 := &Handle{rt: rt, home: HomeWorker(7)}
	rt.enqueue(h2, 0, false)
	if got := rt.qs[1].pop(); got != h2 {
		t.Fatalf("home 7 mod 3 should land on queue 1")
	}
	// Home overrides the releasing worker's locality preference.
	h3 := &Handle{rt: rt, home: HomeWorker(0)}
	rt.enqueue(h3, 2, false)
	if got := rt.qs[0].pop(); got != h3 {
		t.Fatalf("home should override the releasing worker")
	}
	// No home: the releasing worker keeps its successor.
	h4 := &Handle{rt: rt}
	rt.enqueue(h4, 2, false)
	if got := rt.qs[2].pop(); got != h4 {
		t.Fatalf("homeless task should stay with the releasing worker")
	}
}

// TestHomeTasksExecute runs a homed prepared graph end to end across
// replays: hints must never affect completion, ordering or reuse.
func TestHomeTasksExecute(t *testing.T) {
	rt := New(4)
	defer rt.Close()
	const tasks = 8
	var order [tasks]atomic.Int64
	var clock atomic.Int64
	hs := make([]*Handle, tasks)
	for i := range hs {
		i := i
		hs[i] = rt.NewTask(TaskSpec{
			Label: "homed",
			Home:  HomeWorker(i), // wraps over the 4 workers
			Run:   func(int) { order[i].Store(clock.Add(1)) },
		})
	}
	for round := 0; round < 50; round++ {
		// Chain: each task depends on the previous, crossing home queues.
		for i, h := range hs {
			var dep []*Handle
			if i > 0 {
				dep = []*Handle{hs[i-1]}
			}
			rt.Resubmit(h, dep)
		}
		rt.WaitAll(hs)
		for i := 1; i < tasks; i++ {
			if order[i].Load() < order[i-1].Load() {
				t.Fatalf("round %d: task %d ran before its dependency", round, i)
			}
		}
	}
}
