// Package obs is the observability layer of kdb: in-process tracing
// spans, a metrics registry with Prometheus text exposition, trace
// exporters (JSONL and Chrome trace-event), and a debug HTTP handler.
//
// The package is stdlib-only and designed around a zero-cost contract:
// every method on *Tracer and *Span is safe on a nil receiver and does
// nothing, so a KB built without WithTracer pays no allocation on the
// query hot path. Span attributes use typed setters (SetInt, SetStr,
// SetBool) rather than interface{} values so that setting one never
// boxes its argument.
//
// A query's span tree is a view of its record, not a second account of
// its work: the engines and the describer open no spans. The knowledge
// base builds the tree when a statement finishes, laying each phase out
// with Span.Then as long as the wall time the record holds.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind discriminates the payload of an Attr.
type AttrKind uint8

// Attribute payload kinds.
const (
	AttrInt AttrKind = iota
	AttrStr
	AttrBool
)

// Attr is one key/value annotation on a span. Exactly one payload field
// is meaningful, selected by Kind.
type Attr struct {
	Key  string
	Kind AttrKind
	Int  int64
	Str  string
}

// Value returns the payload as an interface value (for export).
func (a Attr) Value() any {
	switch a.Kind {
	case AttrStr:
		return a.Str
	case AttrBool:
		return a.Int != 0
	default:
		return a.Int
	}
}

// Span is one timed phase of a query. Spans form a tree: the root is
// created by Tracer.Start and children by Span.Child or Span.Then. A
// span is safe for concurrent use: the readers are the tracer's ring of
// recent traces (Tracer.Recent, Tracer.Last) and its OnFinish callback,
// which hand trees to goroutines other than the one that built them.
//
// All methods are nil-safe: a nil *Span ignores every call, and
// Child on a nil span returns nil, so an untraced query threads nil
// through the whole instrumentation path at zero cost.
type Span struct {
	name  string
	start time.Time
	id    uint64
	trace uint64 // root span's id, or an adopted W3C trace id

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// spanIDs issues process-unique span ids, so a query-log record can
// reference the trace that captured the same query.
var spanIDs atomic.Uint64

func newSpan(name string) *Span {
	id := spanIDs.Add(1)
	return &Span{name: name, start: time.Now(), id: id, trace: id}
}

// ID returns the process-unique span id, or 0 for a nil span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the id shared by every span in this tree: the root
// span's id, or the trace id adopted from a W3C traceparent header via
// Tracer.StartWithID. Zero for a nil span. Query-log records and
// activity entries join on this value.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// Child creates and returns a sub-span. Returns nil if s is nil. The
// child inherits the parent's trace id, so every span in a tree joins
// to the same query-log record.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	c.trace = s.trace
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Then adds a finished sub-span d long, laid out where the previous
// child ends (at s's start for the first): a phase placed after it ran,
// from a record of its wall time, so children added by Then lie end to
// end. Like Child, it inherits the parent's trace id. Returns nil if s
// is nil.
func (s *Span) Then(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, id: spanIDs.Add(1), trace: s.trace}
	s.mu.Lock()
	c.start = s.start
	if n := len(s.children); n > 0 {
		c.start = s.children[n-1].start.Add(s.children[n-1].Duration())
	}
	c.end = c.start.Add(d)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished. Calling End twice keeps the first end
// time. End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// SetInt adds an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: v})
	s.mu.Unlock()
}

// SetStr adds a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrStr, Str: v})
	s.mu.Unlock()
}

// SetBool adds a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	var i int64
	if v {
		i = 1
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrBool, Int: i})
	s.mu.Unlock()
}

// Name returns the span name. Empty for a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span start time. Zero for a nil span.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end−start, or elapsed-so-far if the span has not
// ended. Zero for a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a copy of the span's direct children in creation
// order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Tracer records a bounded ring of recent query span trees. A nil
// *Tracer is valid and records nothing.
type Tracer struct {
	mu       sync.Mutex
	recent   []*Span // ring, most recent last
	max      int
	onFinish func(*Span)
}

// DefaultTraceBuffer is how many finished root spans a Tracer retains.
const DefaultTraceBuffer = 64

// NewTracer returns a Tracer retaining up to DefaultTraceBuffer recent
// traces.
func NewTracer() *Tracer { return &Tracer{max: DefaultTraceBuffer} }

// OnFinish registers a callback invoked synchronously from Finish with
// each completed root span (e.g. streaming JSONL export).
func (t *Tracer) OnFinish(fn func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onFinish = fn
	t.mu.Unlock()
}

// Start begins a new root span. Returns nil if t is nil. The caller
// must pass the finished root to Finish to retain and export it.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return newSpan(name)
}

// StartWithID begins a new root span carrying an explicit id — used
// when a caller supplies a distributed trace id (W3C traceparent) that
// downstream records should reference instead of a process-issued one.
// An id of 0 falls back to Start.
func (t *Tracer) StartWithID(name string, id uint64) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	if id != 0 {
		s.trace = id
	}
	return s
}

// Finish ends root (if not already ended) and retains it in the recent
// ring, invoking the OnFinish callback if set. No-op on a nil tracer or
// nil root.
func (t *Tracer) Finish(root *Span) {
	if t == nil || root == nil {
		return
	}
	root.End()
	t.mu.Lock()
	t.recent = append(t.recent, root)
	if n := len(t.recent) - t.max; n > 0 {
		t.recent = append(t.recent[:0], t.recent[n:]...)
	}
	fn := t.onFinish
	t.mu.Unlock()
	if fn != nil {
		fn(root)
	}
}

// Last returns the most recently finished root span, or nil.
func (t *Tracer) Last() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recent) == 0 {
		return nil
	}
	return t.recent[len(t.recent)-1]
}

// Recent returns the retained root spans, oldest first.
func (t *Tracer) Recent() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.recent))
	copy(out, t.recent)
	return out
}

type spanKey struct{}

// ContextWithSpan returns a context carrying sp. If sp is nil, ctx is
// returned unchanged (so downstream SpanFromContext stays nil and
// allocation-free).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
