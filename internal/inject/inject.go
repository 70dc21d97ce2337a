// Package inject drives the paper's error-injection methodology (§5.3):
// errors arrive at exponentially distributed gaps whose mean (the Mean
// Time Between Errors) is normalised to the ideal convergence of the
// target problem; affected memory pages are selected uniformly at random
// over the protected (dynamic) vectors.
//
// Time is counted work, not a stopwatch: the unit is one page operation,
// and an ideal solve's count is the unit of a rate (R expected errors per
// ideal solve means a mean gap of that count / R). One driver, Plan,
// covers every storm: scripted arrivals at iteration numbers, and a
// seeded exponential Stream in page operations. There is no injection
// goroutine. A solve armed with a plan calls Plan.Site at the start of
// every task (single node) or before every rank superstep (distributed)
// with the pages the task is about to cover; each call fires every
// arrival due by the work done before it, then adds those pages. A loss
// therefore lands at the first task start at or after its work — on a
// pool, in the middle of whatever the other workers are running — and is
// applied at the boundary that ends the phase, inside the same Run. No
// host's speed enters a storm: on an inline runtime a seed is one fixed
// sequence of losses at fixed sites. Every fired arrival is logged with
// its site, so a storm's Log is an iteration plan that replays it. Tick
// fires iteration arrivals from a per-iteration callback instead, for
// scripts that land at iteration boundaries.
package inject

import (
	"math/rand"
	"sync"

	"repro/internal/pagemem"
)

// PlannedError is one scripted injection at iteration AtIteration. With
// SDC set the injection is a silent single-bit flip of element Elem
// (page-relative) bit Bit instead of a page DUE.
//
// Task names a fault site: an arrival with Task set fires at the
// TaskIndex-th start of a task labelled Task in iteration AtIteration
// (counting from 0), or at the first site of a later iteration should that
// one never run. Plan.Log stamps every fired arrival this way.
type PlannedError struct {
	Vector      *pagemem.Vector
	Page        int
	AtIteration int
	SDC         bool
	Elem        int
	Bit         uint
	Task        string
	TaskIndex   int
}

// Stream is a seeded exponential arrival stream (§5.3) on the work clock:
// gaps of mean MeanWork page operations, each arrival a uniformly drawn
// (vector, page) of Targets, and with probability SDCFraction a silent
// single-bit flip instead of a page DUE. The same seed draws the same
// gaps, vectors, pages and bits.
type Stream struct {
	Targets     []*pagemem.Vector
	MeanWork    float64
	Seed        int64
	SDCFraction float64
}

// Plan injects a fixed list of iteration arrivals plus the arrivals of an
// optional Stream. Start arms it; Site fires what is due at a fault site,
// Tick what is due at an iteration boundary.
type Plan struct {
	Errors []PlannedError
	Stream *Stream

	mu     sync.Mutex
	next   int // Errors[:next] have fired
	work   int64
	rng    *rand.Rand
	nextAt float64        // the stream's next arrival, in page operations
	siteIt int            // the iteration whose task starts seen counts
	seen   map[string]int // per label
	fired  []PlannedError
}

// Start arms the plan: the work clock restarts at zero, the stream is
// reseeded and the log emptied, so a restarted plan replays the same
// arrivals. It panics on a stream with no targets or a non-positive mean.
func (p *Plan) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.work = 0
	p.next = 0
	p.siteIt = -1
	p.seen = map[string]int{}
	p.fired = p.fired[:0]
	if st := p.Stream; st != nil {
		if !(st.MeanWork > 0) {
			panic("inject: non-positive MeanWork")
		}
		if len(st.Targets) == 0 {
			panic("inject: no target vectors")
		}
		p.rng = rand.New(rand.NewSource(st.Seed))
		p.nextAt = p.gap()
	}
}

// Site is the solve's fault-site hook: it fires every arrival due by the
// work done before a task labelled task in the given iteration, stamping
// each with the site in the log, then adds the pages the task covers.
func (p *Plan) Site(iteration int, task string, pages int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if iteration != p.siteIt {
		p.siteIt = iteration
		clear(p.seen)
	}
	index := p.seen[task]
	p.seen[task] = index + 1
	for p.next < len(p.Errors) && due(p.Errors[p.next], iteration, task, index) {
		p.record(p.Errors[p.next], iteration, task, index)
		p.next++
	}
	for p.Stream != nil && float64(p.work) >= p.nextAt {
		p.record(p.draw(), iteration, task, index)
	}
	p.work += int64(pages)
}

// Work returns the page operations counted by Site since Start.
func (p *Plan) Work() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.work
}

// due reports whether scripted error e fires at the site (iteration, task,
// index).
func due(e PlannedError, iteration int, task string, index int) bool {
	if e.Task == "" || iteration > e.AtIteration {
		return iteration >= e.AtIteration
	}
	return iteration == e.AtIteration && task == e.Task && index >= e.TaskIndex
}

// draw takes the stream's next arrival, in the draw order of gap, vector,
// page, then (for a flip) element and bit, and schedules the one after.
func (p *Plan) draw() PlannedError {
	st := p.Stream
	v := st.Targets[p.rng.Intn(len(st.Targets))]
	e := PlannedError{Vector: v, Page: p.rng.Intn(v.Space().NumPages())}
	if st.SDCFraction > 0 && p.rng.Float64() < st.SDCFraction {
		lo, hi := v.PageRange(e.Page)
		e.SDC, e.Elem, e.Bit = true, p.rng.Intn(hi-lo), uint(p.rng.Intn(64))
	}
	p.nextAt += p.gap()
	return e
}

func (p *Plan) gap() float64 { return p.rng.ExpFloat64() * p.Stream.MeanWork }

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

// Tick fires all scripted errors due at iteration it; stream arrivals
// come only from Site. Solvers call it once per iteration. Returns the
// number of errors injected.
func (p *Plan) Tick(it int) int {
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
	return &Plan{Errors: append([]PlannedError(nil), p.fired...)}
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

// Schedule is a deterministic description of a time-varying error rate,
// in iteration units. Compile expands it into an iteration plan: same
// Schedule, same Plan, every run.
type Schedule struct {
	Phases  []RatePhase
	Seed    int64
	Targets []*pagemem.Vector
}

// Compile draws the scripted injections for iterations [0, maxIter) and
// returns them as a Plan. Arrival gaps are exponential with the phase's
// mean; pages, elements and bits are uniform over the targets. A phase
// with MeanIters <= 0 is error-free.
func (s Schedule) Compile(maxIter int) *Plan {
	if len(s.Targets) == 0 {
		panic("inject: schedule with no target vectors")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	plan := &Plan{}
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
