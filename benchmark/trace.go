package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans are recorded
// from the benchmark's own files, around the calls; spans inside
// internal/ are a later change (ROADMAP item 5).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`     // operation index; negative during set-up
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and per-iteration marks in memory until the run
// ends. A nil *tracer records nothing, so the untraced path pays one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	marks map[int][]int64 // op -> one timestamp per OnIteration call
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14), marks: map[int][]int64{}}
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// call runs f inside a span and returns how long f took, traced or not:
// operation latency is the sum of these durations either way.
func (t *tracer) call(name string, op, parent int, f func()) time.Duration {
	id := t.begin(name, op, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// setMarks stores the iteration timestamps of one operation.
func (t *tracer) setMarks(op int, marks []int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.marks[op] = marks
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Spans []span          `json:"spans"`
		Marks map[int][]int64 `json:"iteration_marks_ns"`
	}{t.spans, t.marks})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
