// Package core implements the paper's primary contribution: iterative
// solvers protected against memory-page DUE by exact forward interpolation
// recoveries, either executed in the critical path (FEIR) or overlapped
// with solver computation by a task-based runtime (AFEIR), together with
// the comparator recovery schemes of §4 — Trivial forward recovery, Lossy
// Restart (Langou et al.'s block-Jacobi interpolation + restart) and
// periodic checkpoint/rollback to local disk.
//
// The flagship implementation is the task-parallel resilient Conjugate
// Gradient of §3.3 (plain and block-Jacobi preconditioned), built on
// internal/taskrt with the Figure 1(b) task graph. Resilient BiCGStab and
// GMRES, for which the paper derives the redundancy relations (§3.1.2,
// §3.1.3), run as task graphs on the same engine in bicgstab.go and
// gmres.go — each with a block-Jacobi preconditioned variant
// (Config.UsePrecond) whose preconditioned vectors recover by partial
// application (§3.2).
//
// The three solvers embed one solverBase (base.go): the system, the fault
// domain, the block factors, the runtime and engine, the counters and the
// run plumbing around the recurrences. They repair through one Relations
// (relations.go), which states each Table 1 relation and the §2.4
// combined block systems once; the solvers differ only in which versions
// they pair and in the relations layered on top (CG's double-buffered
// direction, BiCGStab's intermediate vectors, GMRES's Hessenberg copy).
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/defaults"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

// ErrCancelled is returned by Run when Config.Cancelled reports true at an
// iteration boundary. The solver state is left consistent (the prepared
// graph is quiescent), so a pooled instance can be reset and reused.
var ErrCancelled = errors.New("core: solve cancelled")

// ErrNonFinite is returned by Run when the true residual ‖b − A x‖/‖b‖ of
// the iterate is NaN or infinite: x holds a non-finite entry (or A x
// overflows), and no further iteration can make the recurrence's residual
// describe it again. The Result reports the iterations run and that
// residual.
var ErrNonFinite = errors.New("core: non-finite true residual")

// trueResidualSlack is the c of the acceptance rule: the recurrence stops
// when its own residual falls below tol, and the true residual, computed
// afresh from x, may exceed tol by the rounding the recurrence accumulated
// over the iterations (and, after inverse or coupled repairs, by their
// rounding) — up to c·tol.
const trueResidualSlack = 10

// AcceptTrueResidual is the one acceptance rule of every solver here,
// core's three and dist's CG: an iterate whose recurrence claims
// convergence is accepted when its true residual final is finite and at
// most trueResidualSlack·tol. A non-finite final is ErrNonFinite; a finite
// one above the bound is neither accepted nor an error (the solver
// rebuilds its recurrence from x and goes on).
func AcceptTrueResidual(final, tol float64) (bool, error) {
	if math.IsNaN(final) || math.IsInf(final, 0) {
		return false, ErrNonFinite
	}
	return final <= trueResidualSlack*tol, nil
}

// Method selects the resilience scheme of a solver run (§5.1).
type Method int

const (
	// MethodIdeal is the baseline with no resilience mechanisms and no
	// error handling at all; the reference for all overhead numbers.
	MethodIdeal Method = iota
	// MethodTrivial keeps running after a DUE by mapping a blank page over
	// the lost one (§4.1). No convergence guarantees.
	MethodTrivial
	// MethodLossy is the Lossy Restart (§4.3): block-Jacobi interpolation
	// of lost iterate pages, then a restart of the method.
	MethodLossy
	// MethodCheckpoint is periodic checkpoint/rollback to local disk
	// (§4.2) of the iterate and search direction.
	MethodCheckpoint
	// MethodFEIR is the Forward Exact Interpolation Recovery with recovery
	// tasks in the critical path (§3.3.2, Fig 2a).
	MethodFEIR
	// MethodAFEIR is the asynchronous variant: recovery tasks overlapped
	// with reductions at lower priority (Fig 2b).
	MethodAFEIR
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodIdeal:
		return "Ideal"
	case MethodTrivial:
		return "Trivial"
	case MethodLossy:
		return "Lossy"
	case MethodCheckpoint:
		return "ckpt"
	case MethodFEIR:
		return "FEIR"
	case MethodAFEIR:
		return "AFEIR"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all methods in the paper's comparison order.
var Methods = []Method{MethodAFEIR, MethodFEIR, MethodLossy, MethodCheckpoint, MethodTrivial}

// ParseMethod maps a method name, in any case, to its Method: the name
// String returns, "checkpoint" for ckpt, and "" for Ideal.
func ParseMethod(s string) (Method, error) {
	switch s = strings.ToLower(s); s {
	case "":
		return MethodIdeal, nil
	case "checkpoint":
		return MethodCheckpoint, nil
	}
	for m := MethodIdeal; m <= MethodAFEIR; m++ {
		if strings.ToLower(m.String()) == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (ideal, trivial, lossy, ckpt, feir, afeir)", s)
}

// Fallback selects what FEIR/AFEIR do with errors that no redundancy
// relation can repair (simultaneous errors on related data, §2.4 case 2).
type Fallback int

const (
	// FallbackIgnore reproduces the paper's evaluation setting (§5.1):
	// "no fallback is used ... simultaneous errors on related data are
	// simply ignored" — the page is replaced by a blank one and counted
	// in Stats.Unrecovered.
	FallbackIgnore Fallback = iota
	// FallbackLossy applies the §2.4 recommendation: a Lossy-style
	// block-Jacobi interpolation of the iterate page and a restart. Only
	// CG implements it; BiCGStab and GMRES refuse it (cgOnlyFallback).
	FallbackLossy
)

// cgOnlyFallback refuses, by name, a Fallback the Krylov-basis solvers do
// not implement, rather than let them drop the field silently.
func cgOnlyFallback(solver string, cfg Config) error {
	if cfg.Fallback == FallbackLossy {
		return fmt.Errorf("core: %s does not implement Fallback FallbackLossy (cg only); leave Fallback at FallbackIgnore", solver)
	}
	return nil
}

// Config parametrises a resilient solver run. FEIR and AFEIR instantiate
// recovery tasks only once a DUE has been signalled (the paper's §5.2/§7
// proposal; its evaluation submitted them every phase).
type Config struct {
	// Method is the resilience scheme. Default MethodIdeal.
	Method Method
	// Workers is the task-runtime pool size. 0 means GOMAXPROCS on one
	// node and one worker per rank on ranks (internal/dist). The paper's
	// single-node runs use 8 (§5.1).
	Workers int
	// PageDoubles is the fault/recovery granularity in float64 elements.
	// 0 means 512 (a 4 KiB page, §2.3).
	PageDoubles int
	// Tol is the relative residual convergence threshold; 0 means 1e-10
	// (§5.4).
	Tol float64
	// MaxIter bounds iterations; 0 means 10*n.
	MaxIter int
	// UsePrecond enables the block-Jacobi preconditioned variant (PCG)
	// with blocks of PageDoubles elements (§5.1).
	UsePrecond bool
	// CheckpointInterval is the checkpoint period in iterations for
	// MethodCheckpoint. 0 means the Young/Daly optimum computed from
	// ExpectedMTBE and the measured checkpoint write time.
	CheckpointInterval int
	// ExpectedMTBE is the error rate assumed by the checkpoint-interval
	// optimisation (it does not drive any injection).
	ExpectedMTBE time.Duration
	// Disk is the simulated local disk for checkpoints. nil means a
	// default disk (see NewSimDisk) when MethodCheckpoint is used.
	Disk *SimDisk
	// Fallback selects the unrecoverable-error policy for FEIR/AFEIR.
	Fallback Fallback
	// OnIteration, when non-nil, is called once per iteration with the
	// relative recurrence residual — the Figure 3 trace hook.
	OnIteration func(it int, relRes float64)
	// RT, when non-nil, is an externally owned task runtime (typically the
	// process-wide taskrt.Shared pool). The solver submits to it but never
	// closes it, and builds its engine and prepared task graphs once —
	// subsequent Runs on the same instance replay them. When nil the
	// solver owns a private pool per Run (the historical behaviour).
	RT *taskrt.Runtime
	// Blocks, when non-nil, is a diagonal-block solver cache shared across
	// solver instances for the same operator, its blocks factored at first
	// use by a method that reads factors (the registry factors it whole
	// at the first checkout that can); the constructor uses it instead of
	// building its own.
	// It must have been built for the same matrix, block size and SPD
	// setting — constructors reject mismatches loudly.
	Blocks *sparse.BlockSolverCache
	// Cancelled, when non-nil, is polled at iteration boundaries; when it
	// reports true the solve stops and Run returns ErrCancelled. The
	// serving layer wires context.Done into this.
	Cancelled func() bool
	// TaskPriority is the base priority of the solver's compute tasks on
	// the shared runtime (higher runs first; 0 keeps the per-worker FIFO
	// fast path). Overlapped recovery tasks always run below every
	// request's compute tier.
	TaskPriority int
	// ABFT enables the checksum-carrying kernel variants: every produced
	// page stores an XOR-of-bits checksum in the producing pass, and
	// consumers verify it before reading, turning silent bit flips into
	// Poisons the exact recovery relations repair. Only effective with
	// the resilient methods (FEIR/AFEIR), which own the recovery
	// machinery the detections hand over to.
	ABFT bool
}

// OverlapPriority is the priority of overlapped (AFEIR) recovery tasks:
// strictly below the compute tier of every request, preserving the §3.3.2
// "recoveries after reductions" ordering under concurrent solves.
func (c Config) OverlapPriority() int {
	if c.TaskPriority-1 < 0 {
		return c.TaskPriority - 1
	}
	return -1
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 0 // taskrt.New treats 0 as GOMAXPROCS
}

func (c Config) pageDoubles() int { return defaults.PageDoublesOr(c.PageDoubles) }

func (c Config) tol() float64 { return defaults.TolOr(c.Tol) }

func (c Config) maxIter(n int) int { return defaults.MaxIterOr(c.MaxIter, n) }

// Stats counts the resilience activity of one run.
type Stats struct {
	// FaultsSeen is the number of page DUEs that became visible to the
	// solver (applied injections).
	FaultsSeen int
	// RecoveredForward counts pages rebuilt by re-running the forward
	// relation that produced them (lhs rows of Table 1).
	RecoveredForward int
	// RecoveredInverse counts pages rebuilt by solving an inverted block
	// relation with a factorized diagonal block (rhs rows of Table 1).
	RecoveredInverse int
	// RecoveredCoupled counts pages rebuilt via the combined multi-error
	// block system of §2.4.
	RecoveredCoupled int
	// RecomputedQ counts q row-pages recomputed by SpMV after direction
	// recovery.
	RecomputedQ int
	// PrecondPartialApplies counts partial block-Jacobi applications used
	// to rebuild preconditioned-vector pages (§3.2).
	PrecondPartialApplies int
	// ContributionsLost counts page contributions missing from a scalar
	// reduction at the time it ran — AFEIR's vulnerability window (§5.4).
	ContributionsLost int
	// Unrecovered counts pages abandoned to a blank remap because no
	// relation could rebuild them (FallbackIgnore policy).
	Unrecovered int
	// LossyInterpolations counts block-Jacobi iterate interpolations
	// (Lossy Restart, or FallbackLossy).
	LossyInterpolations int
	// Restarts counts solver restarts (Lossy Restart, FallbackLossy and
	// consistency refreshes) and, on ranks, the β = 0 direction restarts
	// of a CG whose lost direction page no relation could rebuild.
	Restarts int
	// Rollbacks counts checkpoint restores.
	Rollbacks int
	// CheckpointsWritten counts checkpoint writes.
	CheckpointsWritten int
	// SDCInjected counts silent bit flips applied to the solver's pages.
	SDCInjected int
	// SDCDetected counts silent flips caught by ABFT checksum
	// verification (each one also appears in FaultsSeen once its Poison
	// is applied).
	SDCDetected int
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.FaultsSeen += o.FaultsSeen
	s.RecoveredForward += o.RecoveredForward
	s.RecoveredInverse += o.RecoveredInverse
	s.RecoveredCoupled += o.RecoveredCoupled
	s.RecomputedQ += o.RecomputedQ
	s.PrecondPartialApplies += o.PrecondPartialApplies
	s.ContributionsLost += o.ContributionsLost
	s.Unrecovered += o.Unrecovered
	s.LossyInterpolations += o.LossyInterpolations
	s.Restarts += o.Restarts
	s.Rollbacks += o.Rollbacks
	s.CheckpointsWritten += o.CheckpointsWritten
	s.SDCInjected += o.SDCInjected
	s.SDCDetected += o.SDCDetected
}

// Result reports the outcome of a resilient solve.
type Result struct {
	Converged   bool
	Iterations  int
	RelResidual float64 // true relative residual, recomputed at the end
	Elapsed     time.Duration
	Stats       Stats
	// WorkerTimes is the per-worker useful/runtime/idle breakdown from
	// the task runtime (Table 3).
	WorkerTimes []taskrt.StateTimes
}
