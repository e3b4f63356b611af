package main

// Spans recorded by the harness around its own calls into kdb. Nothing
// inside kdb is instrumented here: a layer is timed by calling its
// public function directly, on the same statement, right after the
// call a user would make. Such a re-execution is recorded as a child of
// the span whose work it repeats, so parent and child intervals do not
// overlap in time; a layer's self time is its duration minus the
// durations of its children.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call. Parent 0 means the span is an op, the root of
// one replay of the script; Op numbers ops from 1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the pass ends. A nil tracer
// records nothing, which is how the untraced pass runs the same op
// code. The mutex is for serve, whose two clients trace concurrently.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// alias records a second name for the interval of span id, as its child:
// the call a user makes and the layer it enters are sometimes the same
// call (KB.Assert), and each needs its own row in the summary.
func (t *tracer) alias(name string, id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	of := t.spans[id-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: of.Start, End: of.End, Parent: id, Op: of.Op})
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	durs     map[string][]float64 // every duration, ns
	selfDurs map[string][]float64 // every self time, ns
}

// summarize computes per-name durations and self times.
func summarize(spans []span) spanSummary {
	children := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := spanSummary{durs: map[string][]float64{}, selfDurs: map[string][]float64{}}
	for _, s := range spans {
		out.durs[s.Name] = append(out.durs[s.Name], s.dur())
		self := s.dur() - children[s.ID]
		if self < 0 {
			// A re-execution ran slower than the call it repeats (noise
			// on a short statement); the layer keeps no negative time.
			self = 0
		}
		out.selfDurs[s.Name] = append(out.selfDurs[s.Name], self)
	}
	return out
}

func (s spanSummary) medianUS(name string) float64 { return median(s.durs[name]) / 1e3 }

func sumOf(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// total is the time of every span of the name; self leaves out what
// their children account for.
func (s spanSummary) total(name string) float64 { return sumOf(s.durs[name]) }
func (s spanSummary) self(name string) float64  { return sumOf(s.selfDurs[name]) }
