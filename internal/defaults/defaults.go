// Package defaults centralises the zero-value fallbacks shared by every
// Config in the repository (§5.1/§5.4 of the paper): the convergence
// tolerance, the iteration budget, the page granularity and the
// checkpoint period. core.Config (which internal/dist takes as is),
// solver.Options and experiments.Options all resolve their optional
// fields through these helpers, so a paper-wide constant changes in
// exactly one place.
package defaults

import "time"

const (
	// Tol is the relative residual convergence threshold (§5.4).
	Tol = 1e-10
	// PageDoubles is the fault/recovery granularity in float64 elements:
	// a 4 KiB page (§2.3).
	PageDoubles = 512
	// CheckpointInterval is the snapshot period in iterations used when
	// neither a fixed interval nor an MTBE estimate is configured: the
	// paper's no-error-information period (Table 2's "ckpt 1K"), on one
	// node and on ranks alike.
	CheckpointInterval = 1000
	// MaxIterFactor bounds iterations at MaxIterFactor*n when no explicit
	// budget is set.
	MaxIterFactor = 10
	// GMRESRestart is the Arnoldi cycle length m when none is configured.
	GMRESRestart = 30
	// ServeQueueDepth bounds the due-serve admission queue: a request
	// arriving past it is rejected immediately — shedding load beats
	// unbounded queueing latency.
	ServeQueueDepth = 256
	// ServeConcurrent is the number of solves due-serve dispatches
	// concurrently onto the shared pool.
	ServeConcurrent = 4
	// ServeTimeout is the per-request wall-clock budget enforced via
	// context cancellation.
	ServeTimeout = 2 * time.Minute
	// ServeCacheBytes caps the operator-context cache (CSR + factorized
	// diagonal blocks); least-recently-used contexts are evicted past it.
	ServeCacheBytes = 256 << 20
)

// GMRESRestartOr resolves a configured restart length, falling back to
// GMRESRestart.
func GMRESRestartOr(v int) int { return Int(v, GMRESRestart) }

// TolOr resolves a configured tolerance, falling back to Tol.
func TolOr(v float64) float64 { return Float(v, Tol) }

// PageDoublesOr resolves a configured page size, falling back to
// PageDoubles.
func PageDoublesOr(v int) int { return Int(v, PageDoubles) }

// MaxIterOr resolves a configured iteration budget for an n-dimensional
// system, falling back to MaxIterFactor*n.
func MaxIterOr(v, n int) int { return Int(v, MaxIterFactor*n) }

// CheckpointIntervalOr resolves a configured checkpoint period, falling
// back to CheckpointInterval.
func CheckpointIntervalOr(v int) int { return Int(v, CheckpointInterval) }

// ServeQueueDepthOr resolves a configured admission-queue bound, falling
// back to ServeQueueDepth.
func ServeQueueDepthOr(v int) int { return Int(v, ServeQueueDepth) }

// ServeConcurrentOr resolves a configured dispatch width, falling back to
// ServeConcurrent.
func ServeConcurrentOr(v int) int { return Int(v, ServeConcurrent) }

// ServeTimeoutOr resolves a configured per-request budget, falling back
// to ServeTimeout.
func ServeTimeoutOr(v time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return ServeTimeout
}

// ServeCacheBytesOr resolves a configured cache cap, falling back to
// ServeCacheBytes.
func ServeCacheBytesOr(v int64) int64 {
	if v > 0 {
		return v
	}
	return ServeCacheBytes
}

// Float returns v unless it is non-positive, in which case d.
func Float(v, d float64) float64 {
	if v > 0 {
		return v
	}
	return d
}

// Int returns v unless it is non-positive, in which case d.
func Int(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}
