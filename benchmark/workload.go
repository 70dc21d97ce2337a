package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sparse"
	"repro/internal/taskrt"
)

const (
	tol         = 1e-8 // every solve, every workload
	pageDoubles = 512  // the paper's 4 KiB page
	warmups     = 3    // unmeasured operations before timing starts
	setupReps   = 3    // set-ups per run; setup_s is their median
	// countOps is the prefix of the measured sequence the count metrics
	// (iterations, faults, recoveries) are taken over: a run measures
	// for a fixed time, so only a fixed prefix repeats from run to run.
	// Every run executes at least this many operations.
	countOps = 8
	// hardLimit ends a run that hangs outside a guarded solve, inside the
	// 180 s the driver allows.
	hardLimit = 170 * time.Second
)

// sizes are the problem dimensions of the five workloads; the smoke test
// shrinks them.
type sizes struct {
	cgGrid int // cg-stream: side of the Poisson3D27 cube
	pcgN   int // pcg-block: thermal2 analogue dimension
	stormN int // storm-exact, dist-cg: thermal2 analogue dimension
	serveN int // serve-mix: dimension of the three operators
}

var fullSizes = sizes{cgGrid: 32, pcgN: 4096, stormN: 16384, serveN: 4096}

type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // "" writes no files
}

// opRecord is one measured operation as its caller saw it.
type opRecord struct {
	index  int
	class  string        // request class (serve-mix); "" elsewhere
	dur    time.Duration // Checkout+Run+Release, or Submit
	fail   string        // why the operation failed; "" when verified
	traced bool

	iters          int
	stats          core.Stats
	planned, fired int     // fault plan entries due / injected
	marks          []int64 // iteration timestamps (traced solves)
	warm           bool
	checkout       time.Duration     // the Checkout part of dur
	pool           taskrt.StateTimes // the task pool's clocks over this operation
	start, end     time.Time         // as the client saw it; what throughput windows count

	// serve-mix only
	queued, elapsed time.Duration
}

type setupTimes struct {
	total, gen, context, coldCheckout time.Duration
}

// workload is one named set of inputs with the program configuration it
// drives.
type workload interface {
	// setup generates operators, builds their contexts and runs the
	// warm-up operations, so the first measured operation is warm.
	setup(tr *tracer) (setupTimes, error)
	// measure runs the seeded operation sequence for the given time (and
	// at least countOps operations) and returns one record per operation
	// in sequence order.
	measure(seconds float64, tr *tracer, wd *watchdog) []opRecord
	// layers fills the per-layer metrics of the layers this workload
	// enters; the rest read 0.
	layers(m *metricSet, lc *layerCtx)
	// tailPct is the percentile solve_ms_tail reports here, fixed per
	// workload by the number of operations a run completes.
	tailPct() float64
	// primaryClass names the request class trace overhead is judged on.
	primaryClass() string
	close()
}

// layerCtx is what a traced run hands the layer probes.
type layerCtx struct {
	recs    []opRecord
	workers int
	triad   float64 // GB/s, measured in this run
	wd      *watchdog
}

var workloads = map[string]func(p params) workload{
	"cg-stream":   newCGStream,
	"pcg-block":   newPCGBlock,
	"storm-exact": newStormExact,
	"dist-cg":     newDistCG,
	"serve-mix":   newServeMix,
}

// watchdog is the hang guard: armed when measuring starts, it trips
// after three times the expected duration. Solves poll it through
// Config.Cancelled, so a solve that would run to a default MaxIter is
// cut short and counted as failed.
type watchdog struct {
	tripped atomic.Bool
	timer   *time.Timer
}

func newWatchdog(d time.Duration) *watchdog {
	w := &watchdog{}
	w.timer = time.AfterFunc(d, func() { w.tripped.Store(true) })
	return w
}

func (w *watchdog) expired() bool { return w.tripped.Load() }
func (w *watchdog) stop()         { w.timer.Stop() }

// relResidual recomputes ||b - A x|| / ||b|| from outside the solver.
func relResidual(a *sparse.CSR, b, x []float64) float64 {
	if len(x) != a.N {
		return 1
	}
	r := make([]float64, a.N)
	a.MulVec(x, r)
	sparse.Sub(b, r, r)
	return sparse.Norm2(r) / sparse.Norm2(b)
}

// verify is the operation verifier: converged, within MaxIter, the true
// residual recomputed here within 10x the tolerance, and every planned
// fault injected.
func verify(a *sparse.CSR, b, x []float64, converged bool, rec *opRecord) {
	switch {
	case rec.fail != "":
	case !converged:
		rec.fail = fmt.Sprintf("not converged after %d iterations", rec.iters)
	case rec.planned != rec.fired:
		rec.fail = fmt.Sprintf("fault plan: %d planned, %d fired", rec.planned, rec.fired)
	default:
		if rr := relResidual(a, b, x); !(rr <= 10*tol) {
			rec.fail = fmt.Sprintf("true residual %.3g exceeds %.3g", rr, 10*tol)
		}
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a run leaves in out/<workload>.json.
type report struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Seconds    float64    `json:"seconds"`
	Sizes      string     `json:"sizes"`
	Provenance provenance `json:"provenance"`
	Samples    int        `json:"samples"` // verified operations: what the latency percentiles are over
	TailPct    float64    `json:"tail_percentile"`
	// TailSupported is false when fewer than ten samples lie beyond the
	// tail percentile: the value is printed but means little.
	TailSupported bool     `json:"tail_supported"`
	Failures      []string `json:"failures,omitempty"`
	result
	// Ops are the verified operations in the order they started, for
	// whoever wants more than the printed percentiles.
	Ops []opDump `json:"ops"`
}

// opDump is one verified operation in out/<workload>.json.
type opDump struct {
	Index   int     `json:"i"`
	Class   string  `json:"class,omitempty"`
	StartMS float64 `json:"start_ms"` // since the first measured operation started
	MS      float64 `json:"ms"`
}

// runWorkload runs one workload in this process and prints every metric
// by name with its unit; the last line is the result as JSON.
func runWorkload(spec *benchSpec, p params, out io.Writer) (result, error) {
	mk, ok := workloads[p.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", p.workload, spec.workloadNames())
	}
	guard := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded %v, giving up\n", p.workload, hardLimit)
		os.Exit(3)
	})
	defer guard.Stop()

	prov := collectProvenance(p.seed)
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}

	var wl workload
	var setups []setupTimes
	for r := 0; r < setupReps; r++ {
		if wl != nil {
			wl.close()
			wl = nil
			runtime.GC()
		}
		wl = mk(p)
		st, err := wl.setup(tr)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", p.workload, err)
		}
		setups = append(setups, st)
	}
	defer wl.close()
	// The median of the set-ups, each from scratch.
	typical := func(f func(setupTimes) time.Duration) time.Duration {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, float64(f(s)))
		}
		return time.Duration(median(xs))
	}

	f0, g0 := sparse.FactorizationCount(), engine.GraphPrepCount()
	wd := newWatchdog(time.Duration(3 * p.seconds * float64(time.Second)))
	recs := wl.measure(p.seconds, tr, wd)
	wd.stop()
	f1, g1 := sparse.FactorizationCount(), engine.GraphPrepCount()

	rep := report{
		Workload: p.workload, Trace: p.trace, Seconds: p.seconds,
		Sizes: fmt.Sprintf("%+v", p.sz), Provenance: prov, TailPct: wl.tailPct(),
	}
	var verified []opRecord
	for _, r := range recs {
		if r.fail != "" {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("op %d %s: %s", r.index, r.class, r.fail))
			continue
		}
		verified = append(verified, r)
	}
	// Operations the watchdog kept from running count as failed.
	for i := len(recs); i < countOps; i++ {
		rep.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: not run, watchdog tripped", i))
	}
	rep.Attempted = max(len(recs), countOps)

	// In the order they started, which with two clients is not quite the
	// order of their indices: the block-wise statistics cut by time.
	sort.SliceStable(verified, func(a, b int) bool { return verified[a].start.Before(verified[b].start) })
	var okMS []float64
	for _, r := range verified {
		okMS = append(okMS, ms(r.dur))
		rep.Ops = append(rep.Ops, opDump{Index: r.index, Class: r.class, StartMS: ms(r.start.Sub(recs[0].start)), MS: ms(r.dur)})
	}
	rep.Samples = len(okMS)
	rep.TailSupported = tailSupported(len(okMS), wl.tailPct())

	var m *metricSet
	if !p.trace {
		m = newMetricSet(spec.EndToEnd)
		m.set("setup_s", typical(func(s setupTimes) time.Duration { return s.total }).Seconds())
		m.set("solve_ms_p50", blockPercentile(okMS, 50))
		m.set("solve_ms_p90", blockPercentile(okMS, 90))
		m.set("solve_ms_tail", blockPercentile(okMS, wl.tailPct()))
		m.set("solves_per_s", throughput(verified))
		m.set("peak_rss_mb", peakRSSMB())
	} else {
		m = newMetricSet(spec.PerLayer)
		triadGBs, arrayMB := triad(prov.Workers, prov.L2MB)
		rep.Provenance.TriadGBs, rep.Provenance.TriadArrayMB = triadGBs, arrayMB
		m.set("host.triad_gbs", triadGBs)
		m.set("host.nproc", float64(prov.NProc))
		m.set("host.l2_mb", prov.L2MB)
		m.set("host.l3_mb", prov.L3MB)
		m.set("client.samples", float64(len(okMS)))
		m.set("client.tail_pct", wl.tailPct())
		m.set("client.solve_ms_p50", blockPercentile(okMS, 50))
		m.set("client.solve_ms_p90", blockPercentile(okMS, 90))
		m.set("client.solve_ms_tail", blockPercentile(okMS, wl.tailPct()))
		m.set("client.solves_per_s", throughput(verified))
		m.set("matgen.gen_ms", ms(typical(func(s setupTimes) time.Duration { return s.gen })))
		m.set("registry.context_build_ms", ms(typical(func(s setupTimes) time.Duration { return s.context })))
		m.set("registry.checkout_cold_ms", ms(typical(func(s setupTimes) time.Duration { return s.coldCheckout })))
		m.set("sparse.factorizations", float64(f1-f0))
		m.set("engine.graph_preps", float64(g1-g0))
		// Every other operation of a traced run records nothing: the
		// same stream, same process, gives the tracing overhead.
		var on, off []float64
		for _, r := range recs {
			if r.fail == "" && r.class == wl.primaryClass() {
				if r.traced {
					on = append(on, ms(r.dur))
				} else {
					off = append(off, ms(r.dur))
				}
			}
		}
		if base := percentile(off, 50); base > 0 {
			m.set("trace_overhead_pct", 100*(percentile(on, 50)/base-1))
		}
		wl.layers(m, &layerCtx{recs: recs, workers: prov.Workers, triad: triadGBs, wd: wd})
	}

	rep.Metrics = m.values()
	rep.Correct = rep.Failed == 0 && len(verified) > 0
	if miss := m.missing(); !p.trace && len(miss) > 0 {
		return result{}, fmt.Errorf("%s: end-to-end metrics never measured: %v", p.workload, miss)
	}

	printReport(out, spec, &rep)
	if p.outDir != "" {
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return result{}, err
		}
		name := p.workload + ".json"
		if p.trace {
			name = p.workload + ".layers.json"
			if err := tr.write(filepath.Join(p.outDir, "trace-"+p.workload+".json")); err != nil {
				return result{}, err
			}
		}
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(filepath.Join(p.outDir, name), raw, 0o644); err != nil {
			return result{}, err
		}
	}
	line, _ := json.Marshal(rep.result)
	fmt.Fprintln(out, string(line))
	return rep.result, nil
}

// tailSupported says whether ten of n samples lie beyond the percentile.
func tailSupported(n int, pct float64) bool { return float64(n)*(100-pct) >= 1000 }

// printReport lists every metric of the run by name, value and unit, in
// BENCHMARK.json order, after a line with the sample count and the plain
// percentiles.
func printReport(out io.Writer, spec *benchSpec, rep *report) {
	kind, defs := "end-to-end", spec.EndToEnd
	if rep.Trace {
		kind, defs = "per-layer", spec.PerLayer
	}
	fmt.Fprintf(out, "== %s (%s, seed %d, %.0f s, nproc %d, workers %d, %s)\n", rep.Workload, kind,
		rep.Provenance.Seed, rep.Seconds, rep.Provenance.NProc, rep.Provenance.Workers, rep.Provenance.Git)
	if rep.Provenance.Degraded {
		fmt.Fprintln(out, "   DEGRADED: GOMAXPROCS is 1; nothing that needs two cores can show")
	}
	fmt.Fprintf(out, "   attempted %d, failed %d, samples %d; tail is p%g (ten samples beyond it: %v)\n",
		rep.Attempted, rep.Failed, rep.Samples, rep.TailPct, rep.TailSupported)
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		note := ""
		if rep.Trace && d.Unit == "GB/s" && rep.Provenance.TriadGBs > 0 && d.Name != "host.triad_gbs" {
			note = fmt.Sprintf("  (%.2f of triad; bytes computed)", v.Value/rep.Provenance.TriadGBs)
		}
		fmt.Fprintf(out, "   %-34s %14.4f %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	sort.Strings(rep.Failures)
	for i, f := range rep.Failures {
		if i == 10 {
			fmt.Fprintf(out, "   ... %d more failures\n", len(rep.Failures)-10)
			break
		}
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
}
