//go:build unix

package serve

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/taskrt"
)

// TestDrainLeavesPoolIdle: after Drain nothing in the process may still be
// polling — the shared pool's workers are asleep and an idle server burns
// no CPU, however hot the pool ran a moment ago.
func TestDrainLeavesPoolIdle(t *testing.T) {
	srv := newServer(t, Options{Concurrent: 2})
	srv.RegisterMatrix("m", matgen.Poisson2D(30, 30), 64)
	for i := 0; i < 4; i++ {
		if _, err := srv.Submit(fastReq()); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	time.Sleep(20 * time.Millisecond) // many poll budgets
	parked := srv.Snapshot().Pool
	c0 := cpu()
	time.Sleep(200 * time.Millisecond)
	if used := cpu() - c0; used > 20*time.Millisecond {
		t.Fatalf("drained server used %v of CPU in 200 ms", used)
	}
	if now := taskrt.Shared(0).Counters(); now != parked {
		t.Fatalf("pool still moving after Drain: %+v, then %+v", parked, now)
	}
}
