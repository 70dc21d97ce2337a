// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 2 (no-error overheads), Table 3 (state-time
// breakdown), Figure 3 (convergence trace under a single error), Figure 4
// (slowdown vs error-injection rate across matrices and methods) and
// Figure 5 (scaling speedups, via internal/perfmodel plus functional
// distributed runs).
//
// Absolute numbers depend on the host; the paper ran on 8-core Xeon
// E5-2670 sockets, while CI-class hosts may expose a single core, which
// compresses the FEIR/AFEIR overlap contrast (overlap needs idle cores).
// The regenerated artefact is the SHAPE: method orderings, growth with
// error rate, and crossovers. ROADMAP item 10 (the claims ledger) is where
// paper-vs-measured is to be recorded.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/defaults"
	"repro/internal/inject"
	"repro/internal/matgen"
	"repro/internal/registry"
	"repro/internal/sparse"
)

// Options configures the experiment harness.
type Options struct {
	// Scale is the approximate matrix dimension for the workload
	// analogues. 0 means 4096 (quick); the paper's originals are 66k-1.2M
	// rows (see matgen.PaperSizes).
	Scale int
	// Workers is the task-pool size; 0 means 8, the paper's socket size.
	Workers int
	// PageDoubles is the fault granularity; 0 means 512 (4 KiB pages).
	// Quick runs use smaller pages so small matrices still span many
	// pages.
	PageDoubles int
	// Reps is the number of repetitions per configuration; 0 means 3
	// (the paper uses 50).
	Reps int
	// Tol is the convergence threshold; 0 means 1e-8 for the sweep
	// experiments (the paper uses 1e-10; smaller keeps quick runs quick).
	Tol float64
	// Matrices restricts the workload set; nil means all nine analogues.
	Matrices []string
	// Rates is the normalized error-frequency axis of Figure 4; nil
	// means {1, 2, 5, 10, 20, 50}.
	Rates []int
	// Seed drives the injection randomness.
	Seed int64
}

func (o Options) scale() int { return defaults.Int(o.Scale, 4096) }

func (o Options) workers() int { return defaults.Int(o.Workers, 8) }

func (o Options) pageDoubles() int { return defaults.PageDoublesOr(o.PageDoubles) }

func (o Options) reps() int { return defaults.Int(o.Reps, 3) }

// tol defaults to 1e-8, looser than defaults.Tol: the sweep experiments
// repeat many runs and the paper's 1e-10 makes quick runs slow.
func (o Options) tol() float64 { return defaults.Float(o.Tol, 1e-8) }

func (o Options) matrices() []string {
	if len(o.Matrices) > 0 {
		return o.Matrices
	}
	return matgen.PaperMatrixNames
}

func (o Options) rates() []int {
	if len(o.Rates) > 0 {
		return o.Rates
	}
	return []int{1, 2, 5, 10, 20, 50}
}

// harmonicMean returns the harmonic mean of xs (the paper's Table 2 and
// Figure 4 aggregate). Non-positive entries fall back to the arithmetic
// mean to stay defined for ~0 overheads.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	anyNonPos := false
	for _, x := range xs {
		if x <= 0 {
			anyNonPos = true
			break
		}
	}
	if anyNonPos {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	var s float64
	for _, x := range xs {
		s += 1 / x
	}
	return float64(len(xs)) / s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// buildMatrix constructs one analogue at the configured scale.
func buildMatrix(name string, opts Options) (*sparse.CSR, []float64, error) {
	a, err := matgen.PaperMatrix(name, opts.scale())
	if err != nil {
		return nil, nil, err
	}
	return a, matgen.Ones(a.N), nil
}

// factors returns a's block cache (Cholesky when spd, LU otherwise) filled
// whole before any solve is timed: §5.1 treats the factors as computed,
// so no stormed run may pay the fill its first loss would trigger.
func factors(a *sparse.CSR, opts Options, spd bool) *sparse.BlockSolverCache {
	bc := sparse.NewBlockSolverCache(a, sparse.BlockLayout{N: a.N, BlockSize: opts.pageDoubles()}, spd)
	bc.PrefactorizeLenient()
	return bc
}

// runOnce executes one solver run, returning elapsed time and the result.
func runOnce(a *sparse.CSR, b []float64, cfg core.Config) (core.Result, error) {
	cg, err := core.NewCG(a, b, cfg)
	if err != nil {
		return core.Result{}, err
	}
	return cg.Run()
}

// baseConfig assembles the shared solver configuration over blocks (see
// factors; nil for fault-free runs, which read no factor).
func baseConfig(opts Options, method core.Method, precond bool, blocks *sparse.BlockSolverCache) core.Config {
	return core.Config{
		Method:      method,
		Workers:     opts.workers(),
		PageDoubles: opts.pageDoubles(),
		Tol:         opts.tol(),
		UsePrecond:  precond,
		Blocks:      blocks,
	}
}

// ---------------------------------------------------------------------
// Table 2: overheads in absence of faults.
// ---------------------------------------------------------------------

// Table2Row is one method's no-error overhead.
type Table2Row struct {
	Method   string
	Overhead float64 // fraction vs ideal, harmonic mean over matrices
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 measures the no-error overhead of every resilience method against
// the ideal CG, per matrix, and aggregates with the harmonic mean. The
// FEIR and AFEIR rows measure the paper's §7 variant, which submits no
// recovery task in a phase without a DUE, not the always-on tasks its
// Table 2 timed.
func Table2(opts Options) (*Table2Result, error) {
	type variant struct {
		name   string
		method core.Method
		ckpt   int
	}
	variants := []variant{
		{"Ideal", core.MethodIdeal, 0}, // the reference, not a row
		{"Lossy", core.MethodLossy, 0},
		{"Trivial", core.MethodTrivial, 0},
		{"AFEIR", core.MethodAFEIR, 0},
		{"FEIR", core.MethodFEIR, 0},
		{"ckpt 1K", core.MethodCheckpoint, 1000},
		{"ckpt 200", core.MethodCheckpoint, 200},
	}
	overheads := make(map[string][]float64)
	for _, mat := range opts.matrices() {
		a, b, err := buildMatrix(mat, opts)
		if err != nil {
			return nil, err
		}
		// Round-robin reps (rep r of every variant before rep r+1 of
		// any), keeping each variant's fastest: a slow moment of the
		// host then costs every variant one rep, not one variant all.
		best := make([]time.Duration, len(variants))
		for r := 0; r < opts.reps(); r++ {
			for i, v := range variants {
				cfg := baseConfig(opts, v.method, false, nil) // no loss, no factor
				cfg.CheckpointInterval = v.ckpt
				if res, err := runOnce(a, b, cfg); err == nil && (best[i] == 0 || res.Elapsed < best[i]) {
					best[i] = res.Elapsed
				}
			}
		}
		for i, v := range variants[1:] {
			overheads[v.name] = append(overheads[v.name], best[i+1].Seconds()/best[0].Seconds()-1)
		}
	}
	res := &Table2Result{}
	for _, v := range variants[1:] {
		res.Rows = append(res.Rows, Table2Row{Method: v.name, Overhead: harmonicMean(overheads[v.name])})
	}
	return res, nil
}

// String renders the table in the paper's row format.
func (t *Table2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: resilience methods' overheads, no errors\n")
	fmt.Fprintf(&sb, "%-10s", "method")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%10s", r.Method)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s", "overhead")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%9.2f%%", r.Overhead*100)
	}
	sb.WriteString("\n")
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 3: increase of time spent per state for the FEIR methods.
// ---------------------------------------------------------------------

// Table3Row is one method's state-time increase versus ideal.
type Table3Row struct {
	Method    string
	Imbalance float64 // idle-share increase
	Runtime   float64 // scheduler-share increase
	Useful    float64 // useful-share increase
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 measures how FEIR and AFEIR shift worker time across states
// (useful / runtime / idle) relative to the ideal CG, averaged over the
// workload set. Values are the increase of each state's total time. As in
// Table2, a clean solve submits no recovery task (§7's variant).
func Table3(opts Options) (*Table3Result, error) {
	type acc struct{ useful, runtime, idle []float64 }
	sums := map[string]*acc{"AFEIR": {}, "FEIR": {}}
	for _, mat := range opts.matrices() {
		a, b, err := buildMatrix(mat, opts)
		if err != nil {
			return nil, err
		}
		idealT, err := stateTimes(a, b, baseConfig(opts, core.MethodIdeal, false, nil))
		if err != nil {
			return nil, err
		}
		for _, m := range []core.Method{core.MethodAFEIR, core.MethodFEIR} {
			tm, err := stateTimes(a, b, baseConfig(opts, m, false, nil))
			if err != nil {
				return nil, err
			}
			a := sums[m.String()]
			a.useful = append(a.useful, ratioInc(tm.useful, idealT.useful))
			a.runtime = append(a.runtime, ratioInc(tm.runtime, idealT.runtime))
			a.idle = append(a.idle, ratioInc(tm.idle, idealT.idle))
		}
	}
	res := &Table3Result{}
	for _, name := range []string{"AFEIR", "FEIR"} {
		a := sums[name]
		res.Rows = append(res.Rows, Table3Row{
			Method:    name,
			Imbalance: median(a.idle),
			Runtime:   median(a.runtime),
			Useful:    median(a.useful),
		})
	}
	return res, nil
}

type stateTotals struct{ useful, runtime, idle float64 }

func stateTimes(a *sparse.CSR, b []float64, cfg core.Config) (stateTotals, error) {
	res, err := runOnce(a, b, cfg)
	if err != nil {
		return stateTotals{}, err
	}
	var t stateTotals
	for _, w := range res.WorkerTimes {
		t.useful += w.Useful.Seconds()
		t.runtime += w.Runtime.Seconds()
		t.idle += w.Idle.Seconds()
	}
	return t, nil
}

func ratioInc(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return v/base - 1
}

// String renders the table in the paper's format.
func (t *Table3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 3: increase of time spent per state for FEIR methods\n")
	fmt.Fprintf(&sb, "%-8s%12s%12s%12s\n", "", "imbalance", "runtime", "useful")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s%11.2f%%%11.2f%%%11.2f%%\n", r.Method, r.Imbalance*100, r.Runtime*100, r.Useful*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 3: convergence under a single injected error.
// ---------------------------------------------------------------------

// TracePoint is one sample of a convergence trace.
type TracePoint struct {
	Time   time.Duration
	LogRes float64 // log10 of the relative recurrence residual
}

// Fig3Series is one method's convergence trace.
type Fig3Series struct {
	Method string
	Points []TracePoint
}

// Fig3Result reproduces Figure 3: thermal2-analogue, one error injected
// into an iterate page midway through the ideal convergence, at the first
// task of iteration InjectIter.
type Fig3Result struct {
	Matrix     string
	InjectIter int
	IdealTotal time.Duration
	Series     []Fig3Series
}

// Fig3 runs the single-error convergence study.
func Fig3(opts Options) (*Fig3Result, error) {
	const mat = "thermal2"
	a, b, err := buildMatrix(mat, opts)
	if err != nil {
		return nil, err
	}
	// Baseline: ideal run for total time and the trace.
	blocks := factors(a, opts, true)
	idealCfg := baseConfig(opts, core.MethodIdeal, false, blocks)
	out := &Fig3Result{Matrix: mat}
	idealTrace, idealRes, err := traceRun(a, b, idealCfg, nil, 0)
	if err != nil {
		return nil, err
	}
	out.IdealTotal = idealRes.Elapsed
	out.InjectIter = idealRes.Iterations / 2
	out.Series = append(out.Series, Fig3Series{Method: "Ideal", Points: idealTrace})

	methods := []core.Method{core.MethodAFEIR, core.MethodFEIR, core.MethodLossy, core.MethodCheckpoint}
	for _, m := range methods {
		cfg := baseConfig(opts, m, false, blocks)
		if m == core.MethodCheckpoint {
			cfg.CheckpointInterval = 1000
			cfg.Disk = core.NewSimDisk(0)
		}
		trace, _, err := traceRun(a, b, cfg, func(cg *core.CG) *inject.Plan {
			x := cg.Space().VectorByName("x")
			page := cg.Space().NumPages() / 2
			return &inject.Plan{Errors: []inject.PlannedError{{Vector: x, Page: page, AtIteration: out.InjectIter}}}
		}, 0)
		if err != nil {
			return nil, err
		}
		out.Series = append(out.Series, Fig3Series{Method: m.String(), Points: trace})
	}
	return out, nil
}

// traceRun executes one run recording (time, log10 residual) points.
func traceRun(a *sparse.CSR, b []float64, cfg core.Config, plan func(*core.CG) *inject.Plan, _ int) ([]TracePoint, core.Result, error) {
	var points []TracePoint
	start := time.Now()
	cfg.OnIteration = func(it int, rel float64) {
		lr := math.Inf(-1)
		if rel > 0 {
			lr = math.Log10(rel)
		}
		points = append(points, TracePoint{Time: time.Since(start), LogRes: lr})
	}
	cg, err := core.NewCG(a, b, cfg)
	if err != nil {
		return nil, core.Result{}, err
	}
	if plan != nil {
		p := plan(cg)
		p.Start()
		cg.SetSite(p.Site)
	}
	start = time.Now()
	res, err := cg.Run()
	if err != nil {
		return nil, core.Result{}, err
	}
	return points, res, nil
}

// String renders a compact textual form of the traces.
func (f *Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: CG convergence, matrix %s, single error in x at iteration %d (ideal total %v)\n",
		f.Matrix, f.InjectIter, f.IdealTotal.Round(time.Millisecond))
	for _, s := range f.Series {
		last := TracePoint{}
		if len(s.Points) > 0 {
			last = s.Points[len(s.Points)-1]
		}
		fmt.Fprintf(&sb, "  %-8s %5d iterations, final log10(res) %6.2f at %v\n",
			s.Method, len(s.Points), last.LogRes, last.Time.Round(time.Millisecond))
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 4: slowdown vs error-injection rate.
// ---------------------------------------------------------------------

// Fig4Cell is one (solver, matrix, rate, method) aggregate.
type Fig4Cell struct {
	Solver   string // cg, bicgstab or gmres
	Matrix   string
	Rate     int // expected errors per ideal convergence time
	Method   string
	Slowdown float64 // fractional slowdown vs ideal (0.05 = 5 %)
	StdDev   float64
	Failures int // runs that did not converge within the iteration budget
}

// Fig4Result reproduces Figure 4.
type Fig4Result struct {
	Precond bool
	Cells   []Fig4Cell
	// MethodMeans aggregates each (method, rate) over matrices with the
	// harmonic mean — the paper's "CG mean"/"PCG mean" panels. With the
	// preconditioned sweep the key is "solver:method" for the non-CG
	// solvers.
	MethodMeans map[string]map[int]float64
}

// fig4Methods lists the resilience methods swept for one solver: CG has
// every comparator, BiCGStab/GMRES drop Checkpoint (no snapshot protocol
// for the non-symmetric recurrences).
func fig4Methods(solver string) []core.Method {
	if solver == "cg" {
		return []core.Method{core.MethodAFEIR, core.MethodFEIR, core.MethodLossy, core.MethodCheckpoint, core.MethodTrivial}
	}
	return []core.Method{core.MethodAFEIR, core.MethodFEIR, core.MethodLossy, core.MethodTrivial}
}

// fig4MeanKey names a (solver, method) series in MethodMeans.
func fig4MeanKey(solver string, m core.Method) string {
	if solver == "cg" {
		return m.String()
	}
	return solver + ":" + m.String()
}

// Fig4 sweeps matrices × rates × methods with exponential error injection
// on the work clock (mean gap = an ideal solve's page operations / rate,
// DESIGN §12), repeating each cell and aggregating
// like the paper. The unpreconditioned panel is the paper's CG sweep; the
// preconditioned one covers the preconditioned variants of all three
// registered methods (PCG, PBiCGStab, PGMRES) through the same registry
// dispatch the command-line tools use.
func Fig4(opts Options, precond bool) (*Fig4Result, error) {
	solvers := []string{"cg"}
	if precond {
		solvers = []string{"cg", "bicgstab", "gmres"}
	}
	out := &Fig4Result{Precond: precond, MethodMeans: map[string]map[int]float64{}}
	slowdowns := map[string]map[int][]float64{}
	for _, solver := range solvers {
		for _, m := range fig4Methods(solver) {
			key := fig4MeanKey(solver, m)
			slowdowns[key] = map[int][]float64{}
			out.MethodMeans[key] = map[int]float64{}
		}
	}
	seed := opts.Seed
	// run solves once with plan (nil for none) armed on the solve.
	run := func(solver string, a *sparse.CSR, b []float64, cfg core.Config, plan *inject.Plan) (core.Result, error) {
		inst, err := registry.New(solver, a, b, registry.Config{Config: cfg})
		if err != nil {
			return core.Result{}, err
		}
		if plan != nil {
			inst.Arm(plan)
		}
		return inst.Run()
	}
	for _, mat := range opts.matrices() {
		a, b, err := buildMatrix(mat, opts)
		if err != nil {
			return nil, err
		}
		for _, solver := range solvers {
			blocks := factors(a, opts, solver == "cg")
			idealCfg := baseConfig(opts, core.MethodIdeal, precond, blocks)
			unit := &inject.Plan{} // counts the ideal solve's page operations
			idealRes, err := run(solver, a, b, idealCfg, unit)
			if err != nil {
				return nil, err
			}
			tau := idealRes.Elapsed.Seconds()
			for r := 1; r < opts.reps(); r++ {
				if res, err := run(solver, a, b, idealCfg, nil); err == nil && res.Elapsed.Seconds() < tau {
					tau = res.Elapsed.Seconds()
				}
			}
			// Divergent runs (Trivial at high rates) are cut off at a
			// budget proportional to the fault-free iteration count and
			// counted as failures, like the paper's >700% cells.
			iterBudget := 50 * idealRes.Iterations
			if iterBudget < 2000 {
				iterBudget = 2000
			}
			for _, rate := range opts.rates() {
				meanWork := float64(unit.Work()) / float64(rate)
				for _, m := range fig4Methods(solver) {
					var times []float64
					fails := 0
					for rep := 0; rep < opts.reps(); rep++ {
						seed++
						cfg := baseConfig(opts, m, precond, blocks)
						cfg.MaxIter = iterBudget
						if m == core.MethodCheckpoint {
							// Young/Daly is a model in time (DESIGN §12).
							cfg.ExpectedMTBE = time.Duration(tau / float64(rate) * float64(time.Second))
							cfg.Disk = core.NewSimDisk(0)
						}
						res, err := run(solver, a, b, cfg, &inject.Plan{Stream: &inject.Stream{MeanWork: meanWork, Seed: seed}})
						if err != nil || !res.Converged {
							fails++
							continue
						}
						times = append(times, res.Elapsed.Seconds())
					}
					key := fig4MeanKey(solver, m)
					cell := Fig4Cell{Solver: solver, Matrix: mat, Rate: rate, Method: m.String(), Failures: fails}
					if len(times) > 0 {
						hm := harmonicMean(times)
						cell.Slowdown = hm/tau - 1
						var v float64
						for _, t := range times {
							d := t/tau - 1 - cell.Slowdown
							v += d * d
						}
						cell.StdDev = math.Sqrt(v / float64(len(times)))
						slowdowns[key][rate] = append(slowdowns[key][rate], cell.Slowdown)
					}
					out.Cells = append(out.Cells, cell)
				}
			}
		}
	}
	for m, byRate := range slowdowns {
		for rate, xs := range byRate {
			out.MethodMeans[m][rate] = harmonicMean(xs)
		}
	}
	return out, nil
}

// String renders the mean panel in the paper's axis order.
func (f *Fig4Result) String() string {
	var sb strings.Builder
	name := "CG"
	if f.Precond {
		name = "PCG"
	}
	fmt.Fprintf(&sb, "Figure 4 (%s mean): performance slowdown vs normalized error frequency\n", name)
	var rates []int
	for _, c := range f.Cells {
		found := false
		for _, r := range rates {
			if r == c.Rate {
				found = true
				break
			}
		}
		if !found {
			rates = append(rates, c.Rate)
		}
	}
	sort.Ints(rates)
	fmt.Fprintf(&sb, "%-10s", "method")
	for _, r := range rates {
		fmt.Fprintf(&sb, "%9dx", r)
	}
	sb.WriteString("\n")
	var methods []string
	for m := range f.MethodMeans {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		fmt.Fprintf(&sb, "%-10s", m)
		for _, r := range rates {
			fmt.Fprintf(&sb, "%9.1f%%", f.MethodMeans[m][r]*100)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 5: scaling (model + functional validation).
// ---------------------------------------------------------------------

// The distributed validation entry point (ValidateDistributed) lives in
// dist_glue.go; the Figure 5 curves come from perfmodel.Fig5 directly.
