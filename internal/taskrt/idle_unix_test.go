//go:build unix

package taskrt

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user+system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdlePoolIsParked guards against a spin that never gives up: some
// budgets after the last task every worker is asleep, and the process
// then uses next to no CPU — an idle due-serve must not burn a core.
func TestIdlePoolIsParked(t *testing.T) {
	idle := func(t *testing.T, rt *Runtime) {
		for i := 0; i < 100; i++ {
			rt.WaitAll(rt.ParallelFor(64, 8, "burst", nil, 0, func(_, _, _ int) {}))
		}
		rt.Quiesce()
		if !eventually(func() bool { return int(rt.sleepers.Load()) == rt.workers }) {
			t.Fatalf("%d of %d workers parked after Quiesce: %+v", rt.sleepers.Load(), rt.workers, rt.Counters())
		}
		c0 := processCPU(t)
		time.Sleep(200 * time.Millisecond)
		if used := processCPU(t) - c0; used > 20*time.Millisecond {
			t.Fatalf("idle pool used %v of CPU in 200 ms", used)
		}
	}
	t.Run("private", func(t *testing.T) {
		rt := New(4)
		defer rt.Close()
		idle(t, rt)
	})
	t.Run("shared", func(t *testing.T) {
		CloseShared()
		defer CloseShared()
		idle(t, Shared(4))
	})
}
