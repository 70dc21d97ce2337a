package defaults

import (
	"testing"
	"time"
)

func TestFloatFallback(t *testing.T) {
	if got := Float(0, 2.5); got != 2.5 {
		t.Fatalf("Float(0) = %v", got)
	}
	if got := Float(-1, 2.5); got != 2.5 {
		t.Fatalf("Float(-1) = %v", got)
	}
	if got := Float(0.25, 2.5); got != 0.25 {
		t.Fatalf("Float(0.25) = %v", got)
	}
}

func TestIntFallback(t *testing.T) {
	if got := Int(0, 7); got != 7 {
		t.Fatalf("Int(0) = %v", got)
	}
	if got := Int(-3, 7); got != 7 {
		t.Fatalf("Int(-3) = %v", got)
	}
	if got := Int(4, 7); got != 4 {
		t.Fatalf("Int(4) = %v", got)
	}
}

func TestPaperConstants(t *testing.T) {
	// The paper-wide zero-value fallbacks every Config resolves through
	// (§5.1/§5.4): changing one of these changes every solver, so pin them.
	if got := TolOr(0); got != 1e-10 {
		t.Fatalf("TolOr(0) = %v", got)
	}
	if got := TolOr(1e-6); got != 1e-6 {
		t.Fatalf("TolOr(1e-6) = %v", got)
	}
	if got := PageDoublesOr(0); got != 512 {
		t.Fatalf("PageDoublesOr(0) = %v", got)
	}
	if got := PageDoublesOr(64); got != 64 {
		t.Fatalf("PageDoublesOr(64) = %v", got)
	}
	if got := MaxIterOr(0, 100); got != 1000 {
		t.Fatalf("MaxIterOr(0, 100) = %v", got)
	}
	if got := MaxIterOr(42, 100); got != 42 {
		t.Fatalf("MaxIterOr(42, 100) = %v", got)
	}
	if got := CheckpointIntervalOr(0); got != 1000 {
		t.Fatalf("CheckpointIntervalOr(0) = %v", got)
	}
	if got := GMRESRestartOr(0); got != 30 {
		t.Fatalf("GMRESRestartOr(0) = %v", got)
	}
	if got := GMRESRestartOr(20); got != 20 {
		t.Fatalf("GMRESRestartOr(20) = %v", got)
	}
}

func TestServeConstants(t *testing.T) {
	// The serving-layer zero-value fallbacks: due-serve, the serve bench
	// and the in-process tests all resolve through these, so pin them.
	if got := ServeQueueDepthOr(0); got != 256 {
		t.Fatalf("ServeQueueDepthOr(0) = %v", got)
	}
	if got := ServeQueueDepthOr(8); got != 8 {
		t.Fatalf("ServeQueueDepthOr(8) = %v", got)
	}
	if got := ServeConcurrentOr(0); got != 4 {
		t.Fatalf("ServeConcurrentOr(0) = %v", got)
	}
	if got := ServeConcurrentOr(2); got != 2 {
		t.Fatalf("ServeConcurrentOr(2) = %v", got)
	}
	if got := ServeTimeoutOr(0); got != 2*time.Minute {
		t.Fatalf("ServeTimeoutOr(0) = %v", got)
	}
	if got := ServeTimeoutOr(time.Second); got != time.Second {
		t.Fatalf("ServeTimeoutOr(1s) = %v", got)
	}
	if got := ServeCacheBytesOr(0); got != 256<<20 {
		t.Fatalf("ServeCacheBytesOr(0) = %v", got)
	}
	if got := ServeCacheBytesOr(1 << 20); got != 1<<20 {
		t.Fatalf("ServeCacheBytesOr(1MiB) = %v", got)
	}
}
