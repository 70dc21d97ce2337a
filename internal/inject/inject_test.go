package inject

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/pagemem"
)

func newSpace(t *testing.T) (*pagemem.Space, *pagemem.Vector, *pagemem.Vector) {
	t.Helper()
	s := pagemem.NewSpace(5120, 512)
	return s, s.AddVector("x"), s.AddVector("g")
}

func TestPlanByIteration(t *testing.T) {
	_, x, g := newSpace(t)
	p := &Plan{
		ByIteration: true,
		Errors: []PlannedError{
			{Vector: x, Page: 1, AtIteration: 3},
			{Vector: g, Page: 2, AtIteration: 3},
			{Vector: x, Page: 5, AtIteration: 10},
		},
	}
	p.Start()
	if n := p.Tick(2); n != 0 {
		t.Fatalf("Tick(2) fired %d", n)
	}
	if n := p.Tick(3); n != 2 {
		t.Fatalf("Tick(3) fired %d, want 2", n)
	}
	x.Space().ScramblePending()
	if !x.Failed(1) || !g.Failed(2) || x.Failed(5) {
		t.Fatal("wrong pages poisoned")
	}
	if n := p.Tick(50); n != 1 {
		t.Fatalf("Tick(50) fired %d, want 1", n)
	}
	if p.Fired() != 3 {
		t.Fatalf("Fired = %d", p.Fired())
	}
}

func TestPlanTickOnWallClockPlanIsNoop(t *testing.T) {
	_, x, _ := newSpace(t)
	p := &Plan{Errors: []PlannedError{{Vector: x, Page: 0, At: 0}}}
	p.Start()
	if p.Tick(100) != 0 {
		t.Fatal("Tick fired on wall-clock plan")
	}
}

// stream arms a plan over x and g whose stream has a 1 ms mean gap.
func stream(t *testing.T, seed int64, sdc float64) (*Plan, *pagemem.Space) {
	t.Helper()
	s, x, g := newSpace(t)
	p := &Plan{Stream: &Stream{Targets: []*pagemem.Vector{x, g}, MTBE: time.Millisecond, Seed: seed, SDCFraction: sdc}}
	p.Start()
	return p, s
}

// Over 10 k arrivals the stream's mean gap is the MTBE within 3 %, and
// every arrival is a loss the space counts.
func TestScheduleStreamMeanGapIsMTBE(t *testing.T) {
	p, s := stream(t, 1, 0)
	n := p.advance(10000*time.Millisecond, 0, "t")
	log := p.Log().Errors
	if n != len(log) || n < 9000 {
		t.Fatalf("advance fired %d, log holds %d", n, len(log))
	}
	mean := log[n-1].At / time.Duration(n)
	if d := math.Abs(float64(mean-time.Millisecond)) / float64(time.Millisecond); d > 0.03 {
		t.Fatalf("mean gap %v over %d arrivals, %.1f%% off the 1ms MTBE", mean, n, 100*d)
	}
	if int64(n) != s.FaultCount() {
		t.Fatalf("fired %d but FaultCount=%d", n, s.FaultCount())
	}
}

// A seed is a sequence: two plans on one seed, and one plan started
// twice, fire the same gaps, vectors, pages and bits; another seed does
// not.
func TestScheduleStreamSameSeedSameSequence(t *testing.T) {
	draw := func(p *Plan) []PlannedError {
		p.advance(200*time.Millisecond, 0, "t")
		return p.Log().Errors
	}
	a, _ := stream(t, 7, 0.5)
	b, _ := stream(t, 7, 0.5)
	c, _ := stream(t, 8, 0.5)
	first := draw(a)
	a.Start()
	for name, got := range map[string][]PlannedError{"same seed": draw(b), "restart": draw(a)} {
		if len(got) != len(first) {
			t.Fatalf("%s: %d arrivals, want %d", name, len(got), len(first))
		}
		for i := range got {
			// The two spaces differ; compare the vector by name.
			g, w := got[i], first[i]
			if g.Vector.Name() != w.Vector.Name() {
				t.Fatalf("%s: arrival %d on %s, want %s", name, i, g.Vector.Name(), w.Vector.Name())
			}
			g.Vector, w.Vector = nil, nil
			if g != w {
				t.Fatalf("%s: arrival %d is %+v, want %+v", name, i, g, w)
			}
		}
	}
	other := draw(c)
	if len(other) == len(first) && other[0].At == first[0].At {
		t.Fatal("seeds 7 and 8 drew the same stream")
	}
}

// The share of silent flips is SDCFraction (10 k draws, within 3 sigma),
// and flips stay silent: only the page losses raise fault bits.
func TestScheduleStreamSDCShare(t *testing.T) {
	const frac = 0.3
	p, s := stream(t, 3, frac)
	n := p.advance(10000*time.Millisecond, 0, "t")
	sdc := 0
	for _, e := range p.Log().Errors {
		if e.SDC {
			sdc++
		}
	}
	if share := float64(sdc) / float64(n); math.Abs(share-frac) > 3*math.Sqrt(frac*(1-frac)/float64(n)) {
		t.Fatalf("%d of %d arrivals are flips (%.3f), want %.2f", sdc, n, share, frac)
	}
	if int64(n-sdc) != s.FaultCount() {
		t.Fatalf("%d page losses but FaultCount=%d", n-sdc, s.FaultCount())
	}
	if got := s.ApplySilentPending(); got != sdc {
		t.Fatalf("%d flips pending, want %d", got, sdc)
	}
}

// Wall-clock offsets fire at the first call at or after them: each call
// fires exactly what is due at its elapsed time.
func TestPlanByWallClock(t *testing.T) {
	_, x, _ := newSpace(t)
	p := &Plan{Errors: []PlannedError{
		{Vector: x, Page: 0, At: 5 * time.Millisecond},
		{Vector: x, Page: 1, At: 10 * time.Millisecond},
	}}
	p.Start()
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {5 * time.Millisecond, 1}, {9 * time.Millisecond, 0}, {10 * time.Millisecond, 1}, {time.Hour, 0}} {
		if got := p.advance(c.at, 0, "t"); got != c.want {
			t.Fatalf("advance(%v) fired %d, want %d", c.at, got, c.want)
		}
	}
	if p.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", p.Fired())
	}
	x.Space().ScramblePending()
	if !x.Failed(0) || !x.Failed(1) {
		t.Fatal("planned pages not poisoned")
	}
}

// A plan stops when its solve stops calling it: an arrival still pending
// at the last call never fires, however long after it falls due, and no
// goroutine is left behind to fire it.
func TestPlanStopCancelsPending(t *testing.T) {
	_, x, _ := newSpace(t)
	goroutines := runtime.NumGoroutine()
	p := &Plan{Errors: []PlannedError{{Vector: x, Page: 0, At: time.Millisecond}}}
	p.Start()
	if got := p.advance(0, 0, "t"); got != 0 {
		t.Fatalf("advance(0) fired %d before the arrival was due", got)
	}
	time.Sleep(5 * time.Millisecond)
	if p.Fired() != 0 || x.Space().FaultCount() != 0 || runtime.NumGoroutine() > goroutines {
		t.Fatalf("fired %d (FaultCount %d, %d goroutines, %d before) with no call",
			p.Fired(), x.Space().FaultCount(), runtime.NumGoroutine(), goroutines)
	}
	x.Space().ScramblePending()
	if x.Failed(0) {
		t.Fatal("page poisoned after the last call")
	}
}

// A due stream arrival fires at the next call and never before it: a call
// just short of the first arrival fires nothing, a call at it fires it.
// The scripted-offset cases are TestPlanByWallClock and
// TestPlanStopCancelsPending.
func TestScheduleFiresDueArrivalsAtNextCall(t *testing.T) {
	s, _ := stream(t, 5, 0)
	first := s.nextAt
	if got := s.advance(first-1, 0, "t"); got != 0 {
		t.Fatalf("fired %d before the first arrival at %v", got, first)
	}
	if got := s.advance(first, 0, "t"); got < 1 {
		t.Fatalf("first arrival at %v not fired at %v", first, first)
	}
}

// Start refuses a stream that cannot draw: no MTBE or no targets.
func TestScheduleStreamValidation(t *testing.T) {
	_, x, _ := newSpace(t)
	for _, st := range []*Stream{
		{Targets: []*pagemem.Vector{x}},
		{MTBE: time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Start accepted %+v", st)
				}
			}()
			(&Plan{Stream: st}).Start()
		}()
	}
}

// The log stamps each arrival with its site, and replayed as a plan it
// fires every arrival at that same site: same iteration, same label, same
// start of that label within the iteration.
func TestScheduleLogReplaysAtSameSites(t *testing.T) {
	_, x, _ := newSpace(t)
	sites := []struct {
		it   int
		task string
	}{{0, "d"}, {0, "q"}, {0, "d"}, {1, "d"}, {1, "r1"}, {1, "d"}, {2, "q"}}
	rec := &Plan{Errors: []PlannedError{
		{Vector: x, Page: 0, At: 2}, {Vector: x, Page: 1, At: 2}, {Vector: x, Page: 2, At: 5},
	}}
	rec.Start()
	var fired []int
	for i, s := range sites {
		if rec.advance(time.Duration(i), s.it, s.task) > 0 {
			fired = append(fired, i)
		}
	}
	log := rec.Log()
	want := []PlannedError{
		{AtIteration: 0, Task: "d", TaskIndex: 1},
		{AtIteration: 0, Task: "d", TaskIndex: 1},
		{AtIteration: 1, Task: "d", TaskIndex: 1},
	}
	for i, e := range log.Errors {
		if e.AtIteration != want[i].AtIteration || e.Task != want[i].Task || e.TaskIndex != want[i].TaskIndex {
			t.Fatalf("log entry %d stamped %d/%s/%d, want %+v", i, e.AtIteration, e.Task, e.TaskIndex, want[i])
		}
	}
	log.Start()
	var replayed []int
	for i, s := range sites {
		if log.advance(time.Hour, s.it, s.task) > 0 {
			replayed = append(replayed, i)
		}
	}
	if fmt.Sprint(replayed) != fmt.Sprint(fired) || log.Fired() != 3 {
		t.Fatalf("replay fired at sites %v (%d), recorded at %v", replayed, log.Fired(), fired)
	}
}

// A Schedule compiles to the identical Plan every time: same seed, same
// arrivals, same pages, same flip coordinates.
func TestScheduleCompileDeterministic(t *testing.T) {
	space := pagemem.NewSpace(2048, 256)
	v1 := space.AddVector("a")
	v2 := space.AddVector("b")
	sched := Schedule{
		Phases: []RatePhase{
			{FromIteration: 0, MeanIters: 6, SDCFraction: 0.5},
			{FromIteration: 50, MeanIters: 1.5, SDCFraction: 0.25},
		},
		Seed:    42,
		Targets: []*pagemem.Vector{v1, v2},
	}
	p1 := sched.Compile(200)
	p2 := sched.Compile(200)
	if len(p1.Errors) == 0 {
		t.Fatalf("schedule compiled to no errors")
	}
	if len(p1.Errors) != len(p2.Errors) {
		t.Fatalf("lengths differ: %d vs %d", len(p1.Errors), len(p2.Errors))
	}
	for i := range p1.Errors {
		if p1.Errors[i] != p2.Errors[i] {
			t.Fatalf("error %d differs: %+v vs %+v", i, p1.Errors[i], p2.Errors[i])
		}
	}
	var sdc int
	last := -1
	for _, e := range p1.Errors {
		if e.AtIteration < last {
			t.Fatalf("arrivals out of order: %d after %d", e.AtIteration, last)
		}
		last = e.AtIteration
		if e.SDC {
			sdc++
		}
	}
	if sdc == 0 || sdc == len(p1.Errors) {
		t.Fatalf("SDC mix degenerate: %d of %d", sdc, len(p1.Errors))
	}
	// The dense phase must actually be denser.
	early, lateC := 0, 0
	for _, e := range p1.Errors {
		if e.AtIteration < 50 {
			early++
		} else {
			lateC++
		}
	}
	if lateC <= early*2 {
		t.Fatalf("ramp not visible: %d errors before it 50, %d in the 3x span after", early, lateC)
	}
}

// An error-free leading phase produces no arrivals before its boundary.
func TestScheduleErrorFreePhase(t *testing.T) {
	space := pagemem.NewSpace(1024, 256)
	v := space.AddVector("a")
	sched := Schedule{
		Phases: []RatePhase{
			{FromIteration: 0, MeanIters: 0},
			{FromIteration: 30, MeanIters: 2},
		},
		Seed:    7,
		Targets: []*pagemem.Vector{v},
	}
	p := sched.Compile(100)
	if len(p.Errors) == 0 {
		t.Fatalf("no errors in the active phase")
	}
	for _, e := range p.Errors {
		if e.AtIteration < 30 {
			t.Fatalf("error at iteration %d inside the error-free phase", e.AtIteration)
		}
	}
}

// SDC planned errors enqueue silent flips that land at the next boundary
// and count in the space's SDC counter, without setting fault bits.
func TestPlanFiresSilentFlips(t *testing.T) {
	space := pagemem.NewSpace(1024, 256)
	v := space.AddVector("a")
	for i := range v.Data {
		v.Data[i] = 1.0
	}
	plan := &Plan{ByIteration: true, Errors: []PlannedError{
		{Vector: v, Page: 1, AtIteration: 0, SDC: true, Elem: 3, Bit: 52},
	}}
	plan.Start()
	if n := plan.Tick(0); n != 1 {
		t.Fatalf("Tick fired %d, want 1", n)
	}
	if v.AnyFailed() {
		t.Fatalf("silent flip set a fault bit")
	}
	lo, _ := v.PageRange(1)
	if v.Data[lo+3] != 1.0 {
		t.Fatalf("flip applied before the boundary")
	}
	space.ScramblePending()
	if v.Data[lo+3] == 1.0 {
		t.Fatalf("flip not applied at the boundary")
	}
	if space.SDCInjected() != 1 {
		t.Fatalf("SDCInjected = %d, want 1", space.SDCInjected())
	}
	if v.AnyFailed() {
		t.Fatalf("flip raised a fault bit: SDC must stay silent")
	}
}
