// Package perfmodel predicts the large-scale behaviour of the resilient CG
// variants (Figure 5: 64–1024 cores on MareNostrum solving a 512³ 27-point
// Poisson system). A laptop cannot host 1024 cores, so the speedup curves
// are regenerated from an analytic model with the paper's cost structure:
//
//   - compute time per iteration scales with 1/P (SpMV + vector kernels),
//   - halo exchange of one 512² plane per neighbour costs latency +
//     bytes/bandwidth and does not shrink with the 1-D slab partition,
//   - two allreduces per iteration cost ~log2(P) network latencies,
//   - FEIR's recovery tasks sit in the critical path: a per-iteration
//     latency that does NOT shrink with P, which is why FEIR falls behind
//     the ideal curve as iterations get shorter (§5.5),
//   - AFEIR overlaps that latency but loses reduction contributions when
//     errors strike, costing extra iterations that compound with the error
//     count (§5.4) — the reason AFEIR drops below FEIR at 2 errors/run,
//   - Lossy Restart pays extra iterations per restart (superlinear
//     convergence lost), Trivial pays much more, and checkpointing pays
//     periodic local-disk writes plus rollback re-execution.
//
// The free constants (effective flops, network parameters, per-method
// latencies and damage factors) are calibrated against this repository's
// single-socket measurements and the paper's reported anchors; they are
// exported so sensitivity studies can vary them.
package perfmodel

import (
	"math"

	"repro/internal/core"
)

// Machine describes the modelled cluster. The defaults approximate a
// MareNostrum III node: 2× 8-core Sandy Bridge sockets, InfiniBand FDR.
type Machine struct {
	CoresPerSocket   int
	FlopsPerCore     float64 // effective (memory-bound) flop rate
	NetLatency       float64 // seconds per message
	NetBandwidth     float64 // bytes/second per link
	DiskBandwidth    float64 // bytes/second of a socket's local scratch disk
	ReduceLatency    float64 // seconds per allreduce hop
	TaskLatencyFEIR  float64 // critical-path recovery-task latency per iteration
	TaskLatencyAFEIR float64 // residual (non-overlapped) latency per iteration
}

// DefaultMachine returns the calibrated machine description.
func DefaultMachine() Machine {
	return Machine{
		CoresPerSocket:   8,
		FlopsPerCore:     2.0e9,
		NetLatency:       2e-6,
		NetBandwidth:     4.0e9,
		DiskBandwidth:    50e6,
		ReduceLatency:    5e-6,
		TaskLatencyFEIR:  3.5e-3,
		TaskLatencyAFEIR: 0.3e-3,
	}
}

// Problem describes the modelled workload: the HPCG-like 27-point stencil.
type Problem struct {
	NX         int     // grid side; N = NX³ unknowns
	NnzPerRow  float64 // 27 for the stencil
	Iterations int     // fault-free iterations to convergence ("a few tens")
}

// DefaultProblem returns the paper's 512³ system.
func DefaultProblem() Problem {
	return Problem{NX: 512, NnzPerRow: 27, Iterations: 40}
}

// DamageModel holds the per-method convergence-damage factors: the extra
// iterations caused by err errors are
//
//	Iterations × (Linear×err + Quadratic×err×(err-1))
//
// Exact forward recovery does essentially no damage; AFEIR's lost
// contributions, Lossy's restarts and Trivial's blank pages do.
type DamageModel struct{ Linear, Quadratic float64 }

// Model combines machine, problem and method parameters.
type Model struct {
	Machine Machine
	Problem Problem
	// Damage maps each method to its convergence-damage model.
	Damage map[core.Method]DamageModel
	// RecoveryCoordinationIters is the pipeline disturbance of one
	// recovery event, in iteration-equivalents (halo refreshes, extra
	// reductions, jitter).
	RecoveryCoordinationIters float64
}

// New returns the calibrated model.
func New() *Model {
	return &Model{
		Machine: DefaultMachine(),
		Problem: DefaultProblem(),
		Damage: map[core.Method]DamageModel{
			core.MethodIdeal:      {},
			core.MethodFEIR:       {Linear: 0.01},
			core.MethodAFEIR:      {Linear: 0.22, Quadratic: 0.16},
			core.MethodLossy:      {Linear: 0.45, Quadratic: 0.23},
			core.MethodTrivial:    {Linear: 2.0, Quadratic: 0.8},
			core.MethodCheckpoint: {},
		},
		RecoveryCoordinationIters: 2,
	}
}

// Sockets converts a core count to sockets (the paper maps one MPI rank
// per 8-core socket).
func (m *Model) Sockets(cores int) int {
	s := cores / m.Machine.CoresPerSocket
	if s < 1 {
		s = 1
	}
	return s
}

// IterTime returns the fault-free per-iteration time on the given number
// of cores.
func (m *Model) IterTime(cores int) float64 {
	p := float64(m.Sockets(cores))
	n := float64(m.Problem.NX) * float64(m.Problem.NX) * float64(m.Problem.NX)
	flops := 2*m.Problem.NnzPerRow*n + 10*n // SpMV + axpy/dot kernels
	socketFlops := float64(m.Machine.CoresPerSocket) * m.Machine.FlopsPerCore
	tComp := flops / p / socketFlops
	// 1-D slab partition: one 512² plane of halo per neighbour, 2 sides.
	plane := float64(m.Problem.NX*m.Problem.NX) * 8
	tHalo := 2 * (m.Machine.NetLatency + plane/m.Machine.NetBandwidth)
	if p == 1 {
		tHalo = 0
	}
	tReduce := 2 * math.Ceil(math.Log2(p)) * m.Machine.ReduceLatency
	return tComp + tHalo + tReduce
}

// RunTime predicts the total execution time of a run with the given
// method, core count and number of errors.
func (m *Model) RunTime(method core.Method, cores, errors int) float64 {
	return m.RunTimeF(method, cores, float64(errors))
}

// RunTimeF is RunTime with a real-valued error count. The damage factor
// is clamped at 1 so the quadratic term cannot predict a SPEEDUP for
// fractional e<1; at integer e it equals RunTime exactly.
func (m *Model) RunTimeF(method core.Method, cores int, e float64) float64 {
	tIter := m.IterTime(cores)
	iters := float64(m.Problem.Iterations)

	// Per-iteration resilience latency.
	switch method {
	case core.MethodFEIR:
		tIter += m.Machine.TaskLatencyFEIR
	case core.MethodAFEIR:
		tIter += m.Machine.TaskLatencyAFEIR
	}

	// Convergence damage in extra iterations.
	dm := m.Damage[method]
	factor := 1 + dm.Linear*e + dm.Quadratic*e*(e-1)
	if factor < 1 {
		factor = 1
	}
	iters *= factor
	// Recovery/restart coordination per error.
	iters += m.RecoveryCoordinationIters * e

	total := iters * tIter

	if method == core.MethodCheckpoint {
		// Per-socket checkpoint bytes: x and d slabs.
		n := float64(m.Problem.NX) * float64(m.Problem.NX) * float64(m.Problem.NX)
		p := float64(m.Sockets(cores))
		ckptTime := 2 * n / p * 8 / m.Machine.DiskBandwidth
		base := float64(m.Problem.Iterations) * tIter
		var interval float64
		if e > 0 {
			mtbe := base / e
			interval = math.Sqrt(2 * ckptTime * mtbe) // Young/Daly
		} else {
			interval = base // one checkpoint
		}
		numCkpts := math.Max(1, base/interval)
		total += numCkpts * ckptTime
		// Per error: read back + re-execute half an interval.
		total += e * (ckptTime + interval/2)
	}
	return total
}

// Speedup returns the paper's Figure 5 metric: execution time of the ideal
// CG on 64 cores divided by this run's time.
func (m *Model) Speedup(method core.Method, cores, errors int) float64 {
	ref := m.RunTime(core.MethodIdeal, 64, 0)
	return ref / m.RunTime(method, cores, errors)
}

// ParallelEfficiency returns ideal-CG efficiency at the given core count
// relative to 64 cores (the paper reports 80.17 % at 1024).
func (m *Model) ParallelEfficiency(cores int) float64 {
	return m.Speedup(core.MethodIdeal, cores, 0) / (float64(cores) / 64)
}

// Fig5Curve is one method's speedup series.
type Fig5Curve struct {
	Method  core.Method
	Errors  int
	Cores   []int
	Speedup []float64
}

// Fig5Cores is the paper's x-axis.
var Fig5Cores = []int{64, 128, 256, 512, 1024}

// Fig5 produces all curves of Figure 5 (each method at 1 and 2 errors per
// run, plus the ideal and linear references).
func (m *Model) Fig5() []Fig5Curve {
	methods := []core.Method{
		core.MethodAFEIR, core.MethodFEIR, core.MethodLossy,
		core.MethodCheckpoint, core.MethodTrivial,
	}
	var out []Fig5Curve
	for _, errs := range []int{1, 2} {
		for _, meth := range methods {
			c := Fig5Curve{Method: meth, Errors: errs, Cores: Fig5Cores}
			for _, cores := range Fig5Cores {
				c.Speedup = append(c.Speedup, m.Speedup(meth, cores, errs))
			}
			out = append(out, c)
		}
		ideal := Fig5Curve{Method: core.MethodIdeal, Errors: errs, Cores: Fig5Cores}
		for _, cores := range Fig5Cores {
			ideal.Speedup = append(ideal.Speedup, m.Speedup(core.MethodIdeal, cores, 0))
		}
		out = append(out, ideal)
	}
	return out
}
