// Package registry is the single dispatch point for every solver in the
// repository: a name-indexed table of constructors behind one launch
// shape, each building the single-node task-parallel implementation
// (internal/core) and, for cg, the rank-sharded distributed one
// (internal/dist).
// cmd/due-solve, cmd/due-bench and internal/experiments all consume it,
// so adding a method or a topology is one registration here instead of a
// switch edit per consumer.
package registry

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inject"
	"repro/internal/pagemem"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// Config extends the single-node configuration with the distributed
// knobs. Ranks > 0 selects the rank-sharded substrate (Ranks == 1 still
// exercises the distributed path with a single shard).
type Config struct {
	core.Config
	// Ranks is the number of shards; 0 means single-node.
	Ranks int
	// Restart is the GMRES restart length; 0 means 30.
	Restart int
	// RankInject, when non-nil and Ranks > 0, is called once per
	// iteration with the substrate's ranks — the deterministic injection
	// hook of the distributed validation runs.
	RankInject func(it int, ranks []*shard.Rank)
}

// Instance is one ready-to-run solver: the injection surface plus the
// launch closure. RankStats is nil for single-node instances.
type Instance struct {
	// Spaces lists the fault domains (one single-node space, or one per
	// rank).
	Spaces []*pagemem.Space
	// Dynamic lists the vectors injections cover (§5.3).
	Dynamic []*pagemem.Vector
	// Run executes the solve (once) and returns the aggregate result.
	Run func() (core.Result, error)
	// RankStats, when non-nil, snapshots the per-rank recovery counters
	// after Run returned.
	RankStats func() []core.Stats
	// Solution returns the solution vector; only valid after Run
	// returned (and overwritten by the next Run on a pooled instance).
	Solution func() []float64
	// SetSite installs the solve's fault-site hook, typically a started
	// inject.Plan's Site: the next Run fires the plan itself. nil removes
	// it; Checkout.Release removes it from a pooled instance.
	SetSite func(func(iteration int, task string, pages int))
}

// Builder constructs an instance of one named method for either topology.
type Builder func(a *sparse.CSR, b []float64, cfg Config) (*Instance, error)

// Capabilities declares which optional Config knobs a builder honors, so
// New can reject a configuration the solver would otherwise silently
// drop. A requested knob a builder does not declare is a hard error, not
// a fallback: a user asking for PCG-class runs must never be handed
// unpreconditioned results without a word (the pre-PR-3 bug).
type Capabilities struct {
	// Precond: the builder honors Config.UsePrecond.
	Precond bool
	// Distributed: the builder honors Config.Ranks > 0.
	Distributed bool
	// ABFT: the builder honors Config.ABFT (checksum-carrying kernels
	// turning silent flips into recoverable poisons).
	ABFT bool
}

type entry struct {
	caps  Capabilities
	build Builder
}

var builders = map[string]entry{}

// Register adds a named solver with its declared capabilities. Later
// registrations replace earlier ones.
func Register(name string, caps Capabilities, b Builder) {
	builders[name] = entry{caps: caps, build: b}
}

// Names lists the registered solvers, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Caps returns the declared capabilities of a registered solver.
func Caps(name string) (Capabilities, bool) {
	e, ok := builders[name]
	return e.caps, ok
}

// ErrPanicked is what a checked-out Instance.Run returns when the solve
// panicked (a task body's panic is re-raised where the solver waits).
var ErrPanicked = errors.New("registry: solve panicked")

// recovering wraps a checked-out launch: a panic returns as ErrPanicked
// naming its value, and sets *broken so the instance is never pooled.
func recovering(run func() (core.Result, error), broken *bool) func() (core.Result, error) {
	return func() (res core.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				*broken = true
				res, err = core.Result{}, fmt.Errorf("%w: %v", ErrPanicked, r)
			}
		}()
		return run()
	}
}

// New builds the named solver over A x = b, rejecting configuration
// knobs the solver does not declare.
func New(name string, a *sparse.CSR, b []float64, cfg Config) (*Instance, error) {
	e, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown solver %q (have %v)", name, Names())
	}
	if cfg.UsePrecond && !e.caps.Precond {
		return nil, fmt.Errorf("registry: solver %q has no preconditioned variant (drop -precond)", name)
	}
	if cfg.Ranks > 0 && !e.caps.Distributed {
		return nil, fmt.Errorf("registry: solver %q has no distributed variant (drop -ranks)", name)
	}
	if cfg.ABFT && !e.caps.ABFT {
		return nil, fmt.Errorf("registry: solver %q has no ABFT checksum coverage (drop -abft)", name)
	}
	return e.build(a, b, cfg)
}

// Arm starts plan and installs it on the instance's fault sites; a
// stream with no targets draws over the instance's dynamic vectors.
func (inst *Instance) Arm(plan *inject.Plan) {
	if plan.Stream != nil && plan.Stream.Targets == nil {
		plan.Stream.Targets = inst.Dynamic
	}
	plan.Start()
	inst.SetSite(plan.Site)
}

// withSolution completes inst with run, a solver's launch that returns
// the solution, keeping the last one for inst.Solution.
func withSolution(inst *Instance, run func() (core.Result, []float64, error)) *Instance {
	var sol []float64
	inst.Run = func() (core.Result, error) {
		res, x, err := run()
		sol = x
		return res, err
	}
	inst.Solution = func() []float64 { return sol }
	return inst
}

// The cg builder dispatches both topologies, preconditioned or not, and
// is the one with ABFT checksum coverage (single-node only: dist.NewCG
// rejects the distributed combination by name). bicgstab and gmres are
// single-node: New refuses Ranks > 0 for them by name.
func init() {
	Register("cg", Capabilities{Precond: true, Distributed: true, ABFT: true}, func(a *sparse.CSR, b []float64, cfg Config) (*Instance, error) {
		if cfg.Ranks > 0 {
			s, err := dist.NewCG(a, b, cfg.Ranks, cfg.Config)
			if err != nil {
				return nil, err
			}
			s.SetInject(cfg.RankInject)
			return withSolution(&Instance{
				Spaces:    s.Spaces(),
				Dynamic:   s.DynamicVectors(),
				RankStats: s.RankStats,
				SetSite:   s.SetSite,
			}, s.Run), nil
		}
		s, err := core.NewCG(a, b, cfg.Config)
		if err != nil {
			return nil, err
		}
		return &Instance{
			Spaces:   []*pagemem.Space{s.Space()},
			Dynamic:  s.DynamicVectors(),
			Run:      func() (core.Result, error) { return s.Run() },
			Solution: s.Solution,
			SetSite:  s.SetSite,
		}, nil
	})
	Register("bicgstab", Capabilities{Precond: true}, func(a *sparse.CSR, b []float64, cfg Config) (*Instance, error) {
		s, err := core.NewBiCGStab(a, b, cfg.Config)
		if err != nil {
			return nil, err
		}
		return withSolution(&Instance{
			Spaces:  []*pagemem.Space{s.Space()},
			Dynamic: s.DynamicVectors(),
			SetSite: s.SetSite,
		}, s.Run), nil
	})
	Register("gmres", Capabilities{Precond: true}, func(a *sparse.CSR, b []float64, cfg Config) (*Instance, error) {
		s, err := core.NewGMRES(a, b, cfg.Restart, cfg.Config)
		if err != nil {
			return nil, err
		}
		return withSolution(&Instance{
			Spaces:  []*pagemem.Space{s.Space()},
			Dynamic: s.DynamicVectors(),
			SetSite: s.SetSite,
		}, s.Run), nil
	})
}
