package taskrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Scheduler benchmarks: raw task throughput, a dependent fan/chain graph,
// the zero-allocation prepared-graph replay, and the two numbers the poll
// budget rests on (BenchmarkParkUnpark, BenchmarkPhaseHandoff). Run with
// -benchmem.

func BenchmarkThroughputSteal(b *testing.B) {
	rt := New(4)
	defer rt.Close()
	var sink atomic.Int64
	const wave = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < wave; j++ {
			rt.Submit(TaskSpec{Run: func(int) { sink.Add(1) }})
		}
		rt.Quiesce()
	}
	b.ReportMetric(float64(wave), "tasks/op")
}

func BenchmarkFanChainSteal(b *testing.B) {
	rt := New(4)
	defer rt.Close()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prev *Handle
		for d := 0; d < 8; d++ {
			fan := rt.ParallelFor(1024, 4, "fan", []*Handle{prev}, 0, func(w, lo, hi int) {
				sink.Add(int64(hi - lo))
			})
			prev = rt.Submit(TaskSpec{Run: func(int) {}, After: fan})
		}
		rt.Wait(prev)
	}
}

// BenchmarkParkUnpark is the ping-pong pollBudget is sized by: a sleeper
// parked on a sync.Cond (what a parked worker or waiter sleeps on) is
// signalled by a thread that stays busy, as a coordinator does that
// submits a phase and then runs part of it — so the sleeper must come
// back on another processor, through the Go scheduler and, once that
// processor's thread has gone to sleep, the kernel. The waker works for
// 20 µs between rounds (a short solver phase), long enough for that to
// happen. ns/handoff is signal → sleeper running again, the round trip a
// poll saves; ns/signal is what the signal alone costs the waker. Run
// with -cpu 2 or more: with one processor the sleeper cannot run while
// the waker spins.
func BenchmarkParkUnpark(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs a second processor for the sleeper")
	}
	var (
		mu   sync.Mutex
		seq  int // guarded by mu
		ack  atomic.Int64
		cond = sync.NewCond(&mu)
	)
	go func() { // the sleeper
		mu.Lock()
		for seen := 0; seen >= 0; seen = seq {
			for seq == seen {
				cond.Wait()
			}
			ack.Store(int64(seq))
		}
		mu.Unlock()
	}()
	var handoff, signal time.Duration
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		for t := time.Now(); time.Since(t) < 20*time.Microsecond; {
		}
		t0 := time.Now()
		mu.Lock()
		seq = i
		cond.Signal()
		mu.Unlock()
		t1 := time.Now()
		for ack.Load() != int64(i) {
		}
		handoff += time.Since(t0)
		signal += t1.Sub(t0)
	}
	b.StopTimer()
	mu.Lock()
	seq = -1
	cond.Signal()
	mu.Unlock()
	b.ReportMetric(float64(handoff.Nanoseconds())/float64(b.N), "ns/handoff")
	b.ReportMetric(float64(signal.Nanoseconds())/float64(b.N), "ns/signal")
}

// BenchmarkPhaseHandoff is the same hand-off through the runtime: phases
// of two short tasks, one for the waiter and one for a worker, each phase
// submitted only after the previous one was waited for — the shape of a
// solver iteration with the kernels taken out. ns/op is what one phase
// boundary costs.
func BenchmarkPhaseHandoff(b *testing.B) {
	rt := New(2)
	defer rt.Close()
	var sink atomic.Int64
	hs := []*Handle{
		rt.NewTask(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "a"}),
		rt.NewTask(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "b"}),
	}
	for i := 0; i < 10; i++ {
		rt.ResubmitAll(hs, nil)
		rt.WaitAll(hs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ResubmitAll(hs, nil)
		rt.WaitAll(hs)
	}
}

// BenchmarkResubmitIteration replays a prepared two-stage graph — the
// steady-state solver iteration shape. With -benchmem this must report
// 0 allocs/op.
func BenchmarkResubmitIteration(b *testing.B) {
	rt := New(4)
	defer rt.Close()
	var sink atomic.Int64
	a := make([]*Handle, 4)
	c := make([]*Handle, 4)
	for i := range a {
		a[i] = rt.NewTask(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "a"})
		c[i] = rt.NewTask(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "c"})
	}
	for i := 0; i < 10; i++ { // warm up rings and wait conds
		rt.ResubmitAll(a, nil)
		rt.ResubmitAll(c, a)
		rt.WaitAll(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ResubmitAll(a, nil)
		rt.ResubmitAll(c, a)
		rt.WaitAll(c)
	}
}

// BenchmarkSubmitIteration is the same graph shape submitted the
// pre-reuse way: fresh handles and closures every round.
func BenchmarkSubmitIteration(b *testing.B) {
	rt := New(4)
	defer rt.Close()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := make([]*Handle, 4)
		for j := range a {
			a[j] = rt.Submit(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "a"})
		}
		c := make([]*Handle, 4)
		for j := range c {
			c[j] = rt.Submit(TaskSpec{Run: func(int) { sink.Add(1) }, Label: "c", After: a})
		}
		rt.WaitAll(c)
	}
}
