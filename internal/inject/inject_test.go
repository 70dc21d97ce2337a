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

// Tick fires no stream arrival: those come due on counted work, which only
// Site counts, however many iterations pass.
func TestPlanTickOnWallClockPlanIsNoop(t *testing.T) {
	p, _ := stream(t, 1, 0)
	if p.Tick(100) != 0 || p.Fired() != 0 {
		t.Fatal("Tick fired a stream arrival")
	}
}

// meanWork is the stream tests' mean gap, in page operations.
const meanWork = 1000

// stream arms a plan over x and g whose stream has a mean gap of meanWork.
func stream(t *testing.T, seed int64, sdc float64) (*Plan, *pagemem.Space) {
	t.Helper()
	s, x, g := newSpace(t)
	p := &Plan{Stream: &Stream{Targets: []*pagemem.Vector{x, g}, MeanWork: meanWork, Seed: seed, SDCFraction: sdc}}
	p.Start()
	return p, s
}

// site enters p's fault site for a task covering pages, then one covering
// none, so every arrival due by the work done fires; it returns how many
// fired.
func site(p *Plan, pages int) int {
	n := p.Fired()
	p.Site(0, "t", pages)
	p.Site(0, "t", 0)
	return p.Fired() - n
}

// Over ~10 k arrivals the stream's mean gap is MeanWork within 3 %, and
// every arrival is a loss the space counts.
func TestScheduleStreamMeanGapIsMTBE(t *testing.T) {
	p, s := stream(t, 1, 0)
	const work = 10000 * meanWork
	n := site(p, work)
	if n != len(p.Log().Errors) || n < 9000 {
		t.Fatalf("fired %d, log holds %d", n, len(p.Log().Errors))
	}
	if d := math.Abs(work/float64(n)-meanWork) / meanWork; d > 0.03 {
		t.Fatalf("mean gap %.1f over %d arrivals, %.1f%% off MeanWork %d", work/float64(n), n, 100*d, meanWork)
	}
	if int64(n) != s.FaultCount() {
		t.Fatalf("fired %d but FaultCount=%d", n, s.FaultCount())
	}
}

// A seed is a sequence: two plans on one seed, and one plan started
// twice, fire the same vectors, pages and bits at the same work; another
// seed does not.
func TestScheduleStreamSameSeedSameSequence(t *testing.T) {
	draw := func(p *Plan) []PlannedError {
		site(p, 200*meanWork)
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
	if other := draw(c); len(other) == len(first) && other[0].Page == first[0].Page && other[1].Page == first[1].Page {
		t.Fatal("seeds 7 and 8 drew the same stream")
	}
}

// The share of silent flips is SDCFraction (~10 k draws, within 3 sigma),
// and flips stay silent: only the page losses raise fault bits.
func TestScheduleStreamSDCShare(t *testing.T) {
	const frac = 0.3
	p, s := stream(t, 3, frac)
	n := site(p, 10000*meanWork)
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

// No clock but counted work moves a storm: scripted arrivals fire at the
// first site of their iteration, stream arrivals on the pages the sites
// counted, and elapsed time between sites changes neither.
func TestPlanByWallClock(t *testing.T) {
	_, x, g := newSpace(t)
	p := &Plan{
		Errors: []PlannedError{{Vector: x, Page: 0, AtIteration: 1}, {Vector: x, Page: 1, AtIteration: 3}},
		Stream: &Stream{Targets: []*pagemem.Vector{g}, MeanWork: 1e9, Seed: 1},
	}
	p.Start()
	for _, c := range []struct{ it, want int }{{0, 0}, {1, 1}, {1, 0}, {2, 0}, {3, 1}, {9, 0}} {
		time.Sleep(time.Millisecond)
		n := p.Fired()
		if p.Site(c.it, "t", 1); p.Fired()-n != c.want {
			t.Fatalf("site in iteration %d fired %d, want %d", c.it, p.Fired()-n, c.want)
		}
	}
	if p.Fired() != 2 || p.Work() != 6 {
		t.Fatalf("Fired = %d, Work = %d, want 2 and 6", p.Fired(), p.Work())
	}
	x.Space().ScramblePending()
	if !x.Failed(0) || !x.Failed(1) || g.AnyFailed() {
		t.Fatal("wrong pages poisoned")
	}
}

// A plan stops when its solve stops calling it: an arrival still pending
// at the last call never fires, however long after, and no goroutine is
// left behind to fire it.
func TestPlanStopCancelsPending(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	p, s := stream(t, 5, 0)
	if got := site(p, 0); got != 0 {
		t.Fatalf("fired %d before any work was done", got)
	}
	time.Sleep(5 * time.Millisecond)
	if p.Fired() != 0 || s.FaultCount() != 0 || runtime.NumGoroutine() > goroutines {
		t.Fatalf("fired %d (FaultCount %d, %d goroutines, %d before) with no call",
			p.Fired(), s.FaultCount(), runtime.NumGoroutine(), goroutines)
	}
	if s.PendingCount() != 0 {
		t.Fatal("a loss is pending after the last call")
	}
}

// A due stream arrival fires at the first site whose work before it
// reaches the arrival, never at the site whose pages cross it: sites that
// stop just short fire nothing, and the next one fires it. Work counts
// every page the sites were handed.
func TestScheduleFiresDueArrivalsAtNextCall(t *testing.T) {
	s, _ := stream(t, 5, 0)
	first := s.nextAt
	short := int(math.Ceil(first)) - 1
	s.Site(0, "t", short)
	s.Site(0, "t", 1) // its pages reach the arrival
	if got := s.Fired(); got != 0 {
		t.Fatalf("fired %d before the first arrival at %.1f page operations", got, first)
	}
	if s.Site(0, "t", 0); s.Fired() < 1 {
		t.Fatalf("first arrival at %.1f not fired at %d", first, s.Work())
	}
	if s.Work() != int64(short+1) {
		t.Fatalf("Work = %d, want %d", s.Work(), short+1)
	}
	if s.Start(); s.Work() != 0 {
		t.Fatalf("Work = %d after Start", s.Work())
	}
}

// Start refuses a stream that cannot draw: no mean gap or no targets.
func TestScheduleStreamValidation(t *testing.T) {
	_, x, _ := newSpace(t)
	for _, st := range []*Stream{
		{Targets: []*pagemem.Vector{x}},
		{Targets: []*pagemem.Vector{x}, MeanWork: math.NaN()},
		{MeanWork: 1},
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
	}{{0, "d"}, {0, "q"}, {0, "d"}, {1, "d"}, {1, "r1"}, {1, "d"}, {2, "q"}, {2, "q"}, {3, "d"}, {3, "q"}, {3, "d"}}
	rec := &Plan{Stream: &Stream{Targets: []*pagemem.Vector{x}, MeanWork: 1.5, Seed: 1}}
	rec.Start()
	var fired []int
	var want []PlannedError
	index := map[[2]any]int{}
	for i, s := range sites {
		n := rec.Fired()
		if rec.Site(s.it, s.task, 1); rec.Fired() > n {
			fired = append(fired, i)
		}
		k := [2]any{s.it, s.task}
		for range rec.Fired() - n {
			want = append(want, PlannedError{AtIteration: s.it, Task: s.task, TaskIndex: index[k]})
		}
		index[k]++
	}
	log := rec.Log()
	if len(fired) < 2 || len(fired) == len(sites) || len(log.Errors) != len(want) {
		t.Fatalf("recorded at sites %v: %d logged, want %d; the test needs some sites with and some without", fired, len(log.Errors), len(want))
	}
	for i, e := range log.Errors {
		if e.AtIteration != want[i].AtIteration || e.Task != want[i].Task || e.TaskIndex != want[i].TaskIndex {
			t.Fatalf("log entry %d stamped %d/%s/%d, want %+v", i, e.AtIteration, e.Task, e.TaskIndex, want[i])
		}
	}
	log.Start()
	var replayed []int
	for i, s := range sites {
		n := log.Fired()
		if log.Site(s.it, s.task, 1); log.Fired() > n {
			replayed = append(replayed, i)
		}
	}
	if fmt.Sprint(replayed) != fmt.Sprint(fired) || log.Fired() != len(want) {
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
	plan := &Plan{Errors: []PlannedError{
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
