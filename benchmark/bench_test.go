package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/pagemem"
)

// tinySizes keep every workload's shape (several pages per worker, the
// same shadows, faults that land) at a few thousand rows.
var tinySizes = sizes{cgGrid: 12, pcgN: 1024, stormN: 2048, serveN: 1024}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpecT(t *testing.T) *benchSpec {
	t.Helper()
	spec, _, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMeetsContract checks BENCHMARK.json against the limits the
// driver refuses a benchmark for, and against the workloads this
// program knows.
func TestSpecMeetsContract(t *testing.T) {
	spec := loadSpecT(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program implements %d", len(spec.Workloads), len(workloads))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, p := range spec.Paths {
		for _, c := range spec.Command {
			if strings.Contains(c, "/") && !strings.HasPrefix(c, p+"/") {
				t.Errorf("command names %q outside paths", c)
			}
		}
	}
}

// metricLine matches one printed metric: name, value, unit.
var metricLine = regexp.MustCompile(`^   ([A-Za-z0-9_.-]+) +(-?[0-9.]+) (\S+)`)

// runTiny runs one workload in-process at tiny size and checks what it
// printed: every metric of the right list exactly once with its unit,
// nothing else, and the same names in the result line.
func runTiny(t *testing.T, spec *benchSpec, workload string, seed int64, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runWorkload(spec, params{workload: workload, seed: seed, seconds: 0.2, trace: trace, sz: tinySizes}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	defs := spec.EndToEnd
	if trace {
		defs = spec.PerLayer
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	printed := map[string]int{}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines[:len(lines)-1] {
		if m := metricLine.FindStringSubmatch(line); m != nil {
			printed[m[1]]++
			if unit, ok := want[m[1]]; !ok {
				t.Errorf("%s prints %q, which BENCHMARK.json does not list", workload, m[1])
			} else if unit != m[3] {
				t.Errorf("%s prints %s in %q, BENCHMARK.json says %q", workload, m[1], m[3], unit)
			}
		}
	}
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	for name, unit := range want {
		if printed[name] != 1 {
			t.Errorf("%s prints %s %d times", workload, name, printed[name])
		}
		if got, ok := last.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("%s: result line lacks %s in %s", workload, name, unit)
		}
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, want %d", workload, len(last.Metrics), len(want))
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < countOps {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res, out.String()
}

// counts are the per-layer metrics that repeat exactly for a given seed
// wherever the order of reductions is fixed: every workload but
// storm-exact, whose AFEIR recoveries are overlapped and may legitimately
// drop a contribution in one run and not in the next.
var counts = []string{"core.iters_per_solve", "inject.planned_faults", "inject.fired_faults", "shard.reductions_per_iter"}

func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpecT(t)
	for _, w := range spec.workloadNames() {
		t.Run(w, func(t *testing.T) {
			e2e, _ := runTiny(t, spec, w, 1, false)
			for _, d := range spec.EndToEnd {
				if !(e2e.Metrics[d.Name].Value > 0) {
					t.Errorf("%s: %s is %v; end-to-end metrics are never 0", w, d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			a, _ := runTiny(t, spec, w, 1, true)
			b, _ := runTiny(t, spec, w, 1, true)
			for _, name := range counts {
				if w != "storm-exact" && a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %s is %v then %v on the same seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["inject.planned_faults"].Value != a.Metrics["inject.fired_faults"].Value {
				t.Errorf("%s: planned and fired faults differ", w)
			}
			if w == "storm-exact" || w == "dist-cg" {
				if a.Metrics["inject.fired_faults"].Value == 0 {
					t.Errorf("%s: no fault fired", w)
				}
				c, _ := runTiny(t, spec, w, 2, true)
				if c.Metrics["inject.planned_faults"].Value == a.Metrics["inject.planned_faults"].Value {
					t.Errorf("%s: seeds 1 and 2 planned the same %v faults", w, a.Metrics["inject.planned_faults"].Value)
				}
			}
			if over := a.Metrics["sparse.factorizations"].Value + a.Metrics["engine.graph_preps"].Value; over != 0 {
				t.Errorf("%s: %v factorizations or graph preparations during the measured phase", w, over)
			}
		})
	}
}

// TestInputsFollowSeed: the same seed gives the same inputs, another
// seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	if reflect.DeepEqual(matgen.RandomVector(64, opSeed(1, 0)), matgen.RandomVector(64, opSeed(2, 0))) {
		t.Error("seeds 1 and 2 draw the same right-hand side")
	}
	if opSeed(1, 1) == opSeed(1, 2) || opSeed(1, 1) != opSeed(1, 1) {
		t.Error("opSeed does not separate operations")
	}
	space := pagemem.NewSpace(8*pageDoubles, pageDoubles)
	targets := []*pagemem.Vector{space.AddVector("x"), space.AddVector("g")}
	p1, p1again, p2 := stormPlan(5, targets, 400), stormPlan(5, targets, 400), stormPlan(6, targets, 400)
	if !reflect.DeepEqual(p1.Errors, p1again.Errors) {
		t.Error("the same seed compiled two storm plans")
	}
	if reflect.DeepEqual(p1.Errors, p2.Errors) {
		t.Error("two seeds compiled the same storm plan")
	}
	for i := 1; i < len(p1.Errors); i++ {
		if p1.Errors[i].AtIteration == p1.Errors[i-1].AtIteration {
			t.Errorf("two page losses in iteration %d", p1.Errors[i].AtIteration)
		}
	}
	if !reflect.DeepEqual(newRankScript(5, 4000).entries, newRankScript(5, 4000).entries) ||
		reflect.DeepEqual(newRankScript(5, 4000).entries, newRankScript(6, 4000).entries) {
		t.Error("rank scripts do not follow the seed")
	}
}

// A tail percentile is called supported only with ten samples beyond
// it: p99 needs a thousand.
func TestTailSupport(t *testing.T) {
	if tailSupported(999, 99) || !tailSupported(1000, 99) || tailSupported(39, 75) || !tailSupported(40, 75) {
		t.Error("tailSupported does not ask for ten samples beyond the percentile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0]; the median of the data is 13.5.
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := iqrShare(xs), (31.0-3.5)/13.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if p := percentile([]float64{5, 1, 3, 2, 4}, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile([]float64{5, 1, 3, 2, 4}, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
}

// The block-wise percentile ignores a burst that covers a quarter of a
// run and follows a slowdown of every operation in full.
func TestBlockPercentile(t *testing.T) {
	steady := make([]float64, 320)
	for i := range steady {
		steady[i] = 10 + float64(i%10)/10 // 10.0 .. 10.9
	}
	burst := append([]float64(nil), steady...)
	for i := 80; i < 160; i++ {
		burst[i] *= 2
	}
	slow := make([]float64, len(steady))
	for i, x := range steady {
		slow[i] = 2 * x
	}
	base := blockPercentile(steady, 90)
	if got := blockPercentile(burst, 90); got != base {
		t.Errorf("a burst over two of eight blocks moved the p90 from %v to %v", base, got)
	}
	if got := percentile(burst, 90); got <= 1.5*base {
		t.Errorf("the plain p90 of the burst run is %v: the test's burst is too small to matter", got)
	}
	if got := blockPercentile(slow, 90); got != 2*base {
		t.Errorf("every operation twice as slow: p90 %v, want %v", got, 2*base)
	}
	if n := len(blocks(45)); n != 2 {
		t.Errorf("45 operations cut into %d blocks, want 2 of at least %d", n, minBlock)
	}
	if n := len(blocks(5)); n != 1 {
		t.Errorf("5 operations cut into %d blocks", n)
	}
	// Two clients, each one 10 ms operation after the other: 200 a second.
	t0 := time.Unix(0, 0)
	var ops []opRecord
	for i := 0; i < 100; i++ {
		start := t0.Add(time.Duration(i/2) * 10 * time.Millisecond)
		ops = append(ops, opRecord{index: i, start: start, end: start.Add(10 * time.Millisecond)})
	}
	if got := throughput(ops); got < 199.9 || got > 200.1 {
		t.Errorf("throughput %v, want 200", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := loadSpecT(t)
	dir := t.TempDir()
	// mk writes a set with one run per value on seeds 1, 2, ...: every
	// end-to-end metric reads 100 but solve_ms_p50, which reads the value.
	mk := func(file string, p50 []float64, failed int) string {
		s, _ := loadSet(dir+"/none", 10)
		for _, w := range spec.workloadNames() {
			for k, v := range p50 {
				res := result{Attempted: 10, Metrics: map[string]metricValue{}}
				for _, d := range spec.EndToEnd {
					res.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
				}
				res.Metrics["solve_ms_p50"] = metricValue{Value: v, Unit: "ms"}
				if k == 0 {
					res.Failed = failed
				}
				s.add(w, int64(k+1), res)
			}
		}
		if err := s.save(dir + "/" + file); err != nil {
			t.Fatal(err)
		}
		return dir + "/" + file
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.4}
	a := mk("a.json", steady, 0)
	compare := func(b string) (int, string) {
		var out, errs bytes.Buffer
		code := compareSets(spec, a, b, &out, &errs)
		return code, out.String() + errs.String()
	}
	if code, out := compare(mk("same.json", steady, 0)); code != compareOK || strings.Contains(out, "unresolved\t") {
		t.Errorf("A/A: code %d\n%s", code, out)
	}
	if code, out := compare(mk("slow.json", scale(steady, 1.5), 0)); code != compareRegression || !strings.Contains(out, "REGRESSION") {
		t.Errorf("50%% slower: code %d\n%s", code, out)
	}
	if code, out := compare(mk("fast.json", scale(steady, 0.8), 0)); code != compareOK || !strings.Contains(out, "10/10") || !strings.Contains(out, "gain") {
		t.Errorf("20%% quicker on every pair must read as a gain: code %d\n%s", code, out)
	}
	if code, out := compare(mk("noisy.json", []float64{60, 100, 140, 180, 220}, 0)); code != compareUnresolved || !strings.Contains(out, "unresolved") {
		t.Errorf("a noisy set must be unresolved, not ok or regressed: code %d\n%s", code, out)
	}
	if code, out := compare(mk("failing.json", steady, 1)); code != compareRegression {
		t.Errorf("a failed operation must be a regression: code %d\n%s", code, out)
	}
	if code, out := compare(mk("single.json", steady[:1], 0)); code != compareRefused {
		t.Errorf("one run per side has no spread: code %d\n%s", code, out)
	}

	// edit saves a changed copy of the steady set.
	edit := func(file string, f func(*resultSet)) string {
		s, _ := loadSet(a, 0)
		f(s)
		if err := s.save(dir + "/" + file); err != nil {
			t.Fatal(err)
		}
		return dir + "/" + file
	}
	w0 := spec.workloadNames()[0]
	// A child that crashed is a run that attempted nothing.
	if code, out := compare(edit("crashed.json", func(s *resultSet) { s.add(w0, 11, result{}) })); code != compareRegression || !strings.Contains(out, "MISSING") {
		t.Errorf("a run without a result must be a regression: code %d\n%s", code, out)
	}
	if code, out := compare(edit("gone.json", func(s *resultSet) { delete(s.Runs, w0) })); code != compareRefused {
		t.Errorf("a set without a workload: code %d\n%s", code, out)
	}
	if code, out := compare(edit("longer.json", func(s *resultSet) { s.Seconds = 20 })); code != compareRefused {
		t.Errorf("differing run lengths: code %d\n%s", code, out)
	}
	if code, out := compare(edit("other.json", func(s *resultSet) { s.Provenance.NProc++ })); code != compareRefused {
		t.Errorf("differing nproc: code %d\n%s", code, out)
	}
}

// The coalescing comparator replays the same requests on both sides.
func TestCoalescingReplaySameStream(t *testing.T) {
	w := newServeMix(params{workload: "serve-mix", seed: 1, sz: tinySizes}).(*serveWL)
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	const k = 3
	gain, with, solo := w.coalescingReplay(k)
	if with != k*multiWidth || solo != with {
		t.Errorf("coalesced side submitted %d requests, solo side %d, want %d each", with, solo, k*multiWidth)
	}
	if !(gain > 0) {
		t.Errorf("gain %v", gain)
	}
}
