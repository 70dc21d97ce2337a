// Package inject drives the paper's error-injection methodology (§5.3):
// errors arrive at times drawn from an exponential distribution
// parametrised by the Mean Time Between Errors (MTBE), normalised to the
// ideal convergence time of the target problem; affected memory pages are
// selected uniformly at random over the protected (dynamic) vectors.
//
// One driver, Plan, covers every storm: scripted arrivals at iteration
// numbers or at wall-clock offsets, and a seeded exponential wall-clock
// Stream. There is no injection goroutine. The paper's separate thread is
// replaced by the solve's own fault sites: a solve armed with a plan calls
// Plan.Site at the start of every task (single node) or before every rank
// superstep (distributed), and each call fires every arrival that has come
// due. A loss therefore lands at the next task start after its time — on a
// pool, in the middle of whatever the other workers are running — and is
// applied at the boundary that ends the phase, inside the same Run. The
// wall-clock MTBE stays the unit of a storm; only its delivery is
// synchronous. Every fired arrival is logged with its site, so a
// wall-clock storm's Log is an iteration plan that replays it exactly on
// an inline runtime. Tick fires iteration arrivals from a per-iteration
// callback instead, for scripts that land at iteration boundaries.
package inject

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/pagemem"
)

// PlannedError is one scripted injection. Exactly one of At (wall-clock
// offset from Plan.Start) or AtIteration is used, selected by
// Plan.ByIteration. With SDC set the injection is a silent single-bit flip
// of element Elem (page-relative) bit Bit instead of a page DUE.
//
// Task names a fault site: an iteration arrival with Task set fires at
// the TaskIndex-th start of a task labelled Task in iteration AtIteration
// (counting from 0), or at the first site of a later iteration should that
// one never run. Plan.Log stamps every fired arrival this way.
type PlannedError struct {
	Vector      *pagemem.Vector
	Page        int
	At          time.Duration
	AtIteration int
	SDC         bool
	Elem        int
	Bit         uint
	Task        string
	TaskIndex   int
}

// Stream is a seeded exponential wall-clock arrival stream (§5.3): gaps
// of mean MTBE, each arrival a uniformly drawn (vector, page) of Targets,
// and with probability SDCFraction a silent single-bit flip instead of a
// page DUE. The same seed draws the same gaps, vectors, pages and bits.
type Stream struct {
	Targets     []*pagemem.Vector
	MTBE        time.Duration
	Seed        int64
	SDCFraction float64
}

// Plan injects a fixed list of errors, at iteration numbers (ByIteration)
// or at wall-clock offsets, plus the arrivals of an optional Stream. Start
// arms it; Site fires what is due at a fault site, Tick what is due at an
// iteration boundary.
type Plan struct {
	ByIteration bool
	Errors      []PlannedError
	Stream      *Stream

	mu     sync.Mutex
	next   int // Errors[:next] have fired
	start  time.Time
	rng    *rand.Rand
	nextAt time.Duration  // the stream's next arrival
	siteIt int            // the iteration whose task starts seen counts
	seen   map[string]int // per label
	fired  []PlannedError
}

// Start arms the plan: the wall clock starts, the stream is reseeded and
// the log emptied, so a restarted plan replays the same arrivals. It
// panics on a stream with no targets or a non-positive MTBE.
func (p *Plan) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = time.Now()
	p.next = 0
	p.siteIt = -1
	p.seen = map[string]int{}
	p.fired = p.fired[:0]
	if st := p.Stream; st != nil {
		if st.MTBE <= 0 {
			panic("inject: non-positive MTBE")
		}
		if len(st.Targets) == 0 {
			panic("inject: no target vectors")
		}
		p.rng = rand.New(rand.NewSource(st.Seed))
		p.nextAt = p.gap()
	}
}

// Site is the solve's fault-site hook: it fires every arrival due at the
// start of a task labelled task in the given iteration, stamping each
// with the site in the log.
func (p *Plan) Site(iteration int, task string) {
	p.advance(time.Since(p.start), iteration, task)
}

// advance fires every arrival due at elapsed time from Start, at the
// site (iteration, task), and returns how many fired. Site is advance at
// the wall-clock time of the call.
func (p *Plan) advance(elapsed time.Duration, iteration int, task string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if iteration != p.siteIt {
		p.siteIt = iteration
		clear(p.seen)
	}
	index := p.seen[task]
	p.seen[task] = index + 1
	n := len(p.fired)
	for p.next < len(p.Errors) && p.due(p.Errors[p.next], elapsed, iteration, task, index) {
		p.record(p.Errors[p.next], iteration, task, index)
		p.next++
	}
	for p.Stream != nil && elapsed >= p.nextAt {
		p.record(p.draw(), iteration, task, index)
	}
	return len(p.fired) - n
}

// due reports whether scripted error e fires at the site (iteration, task,
// index) reached at elapsed time.
func (p *Plan) due(e PlannedError, elapsed time.Duration, iteration int, task string, index int) bool {
	switch {
	case !p.ByIteration:
		return elapsed >= e.At
	case e.Task == "" || iteration > e.AtIteration:
		return iteration >= e.AtIteration
	}
	return iteration == e.AtIteration && task == e.Task && index >= e.TaskIndex
}

// draw takes the stream's next arrival, in the draw order of gap, vector,
// page, then (for a flip) element and bit, and schedules the one after.
func (p *Plan) draw() PlannedError {
	st := p.Stream
	v := st.Targets[p.rng.Intn(len(st.Targets))]
	e := PlannedError{Vector: v, Page: p.rng.Intn(v.Space().NumPages()), At: p.nextAt}
	if st.SDCFraction > 0 && p.rng.Float64() < st.SDCFraction {
		lo, hi := v.PageRange(e.Page)
		e.SDC, e.Elem, e.Bit = true, p.rng.Intn(hi-lo), uint(p.rng.Intn(64))
	}
	p.nextAt += p.gap()
	return e
}

func (p *Plan) gap() time.Duration {
	return time.Duration(p.rng.ExpFloat64() * float64(p.Stream.MTBE))
}

// record fires e and logs it stamped with the site that fired it.
func (p *Plan) record(e PlannedError, iteration int, task string, index int) {
	if e.SDC {
		e.Vector.FlipBit(e.Page, e.Elem, e.Bit)
	} else {
		e.Vector.Poison(e.Page)
	}
	e.AtIteration, e.Task, e.TaskIndex = iteration, task, index
	p.fired = append(p.fired, e)
}

// Tick fires all iteration-scheduled errors due at iteration it. Solvers
// call it once per iteration. Returns the number of errors injected.
func (p *Plan) Tick(it int) int {
	if !p.ByIteration {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.fired)
	for p.next < len(p.Errors) && p.Errors[p.next].AtIteration <= it {
		p.record(p.Errors[p.next], it, "", 0)
		p.next++
	}
	return len(p.fired) - n
}

// Fired returns how many errors the plan has injected since Start.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fired)
}

// Log returns the injected errors as an iteration plan, in firing order:
// each one stamped with the site that fired it. On an inline runtime the
// log replays the storm exactly.
func (p *Plan) Log() *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Plan{ByIteration: true, Errors: append([]PlannedError(nil), p.fired...)}
}

// ---------------------------------------------------------------------

// RatePhase is one segment of a scripted, iteration-driven error-rate
// schedule: from FromIteration onwards, errors arrive with exponential
// gaps of mean MeanIters iterations, and each is a silent bit flip with
// probability SDCFraction (a page DUE otherwise).
type RatePhase struct {
	FromIteration int
	MeanIters     float64
	SDCFraction   float64
}

// Schedule is a deterministic, wall-clock-free description of a
// time-varying error rate, in iteration units. Compile expands it into an
// iteration-driven Plan: same Schedule, same Plan, every run.
type Schedule struct {
	Phases  []RatePhase
	Seed    int64
	Targets []*pagemem.Vector
}

// Compile draws the scripted injections for iterations [0, maxIter) and
// returns them as a ByIteration Plan. Arrival gaps are exponential with
// the phase's mean; pages, elements and bits are uniform over the
// targets. A phase with MeanIters <= 0 is error-free.
func (s Schedule) Compile(maxIter int) *Plan {
	if len(s.Targets) == 0 {
		panic("inject: schedule with no target vectors")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	plan := &Plan{ByIteration: true}
	phase := 0
	at := 0.0
	for it := 0; it < maxIter; {
		for phase+1 < len(s.Phases) && s.Phases[phase+1].FromIteration <= it {
			phase++
		}
		ph := s.Phases[phase]
		if ph.MeanIters <= 0 {
			// Error-free phase: jump to the next phase boundary.
			if phase+1 >= len(s.Phases) {
				break
			}
			it = s.Phases[phase+1].FromIteration
			at = float64(it)
			continue
		}
		at += rng.ExpFloat64() * ph.MeanIters
		it = int(at)
		if it >= maxIter {
			break
		}
		v := s.Targets[rng.Intn(len(s.Targets))]
		p := rng.Intn(v.Space().NumPages())
		e := PlannedError{Vector: v, Page: p, AtIteration: it}
		if ph.SDCFraction > 0 && rng.Float64() < ph.SDCFraction {
			lo, hi := v.PageRange(p)
			e.SDC = true
			e.Elem = rng.Intn(hi - lo)
			e.Bit = uint(rng.Intn(64))
		}
		plan.Errors = append(plan.Errors, e)
	}
	return plan
}
