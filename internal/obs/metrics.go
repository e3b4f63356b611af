package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a lock-cheap metrics registry. Instrument lookup takes a
// read lock only on the fast path (already-registered series); the
// instruments themselves are purely atomic, so recording a sample never
// blocks. A nil *Registry is valid and hands out nil instruments, which
// ignore every call.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
	// help holds HELP text set before the family's first instrument is
	// registered; it is folded into the family at creation.
	help map[string]string
}

type family struct {
	name string
	typ  string // "counter" | "gauge" | "histogram"
	help string

	mu     sync.RWMutex
	series map[string]*series // keyed by rendered label set
}

type series struct {
	labels   string            // rendered `k="v",…` (sorted), "" when unlabeled
	labelMap map[string]string // the same labels, unescaped; nil when unlabeled

	// counter / gauge payload
	intVal atomic.Int64  // counter
	bits   atomic.Uint64 // gauge (float64 bits)

	// histogram payload
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Counter is a monotonically increasing int64 instrument. Nil-safe.
type Counter struct{ s *series }

// Add increments the counter by d (d < 0 is ignored). Counters sit on
// request and evaluation hot paths; Add must not allocate.
func (c *Counter) Add(d int64) {
	if c == nil || c.s == nil || d < 0 {
		return
	}
	c.s.intVal.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.intVal.Load()
}

// Gauge is a float64 instrument that may go up and down. Nil-safe.
type Gauge struct{ s *series }

// Set stores v. Allocation-free, like Counter.Add.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// Histogram is a cumulative-bucket float64 distribution. Nil-safe.
type Histogram struct{ s *series }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	s := h.s
	i := sort.SearchFloat64s(s.bounds, v)
	s.buckets[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// DefBuckets are the default latency buckets, in seconds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SetHelp attaches Prometheus HELP text to a metric family, before or
// after the family's first instrument is registered.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if f, ok := r.fams[name]; ok {
		f.help = help
	} else {
		if r.help == nil {
			r.help = map[string]string{}
		}
		r.help[name] = help
	}
	r.mu.Unlock()
}

// Counter returns the counter series name{labelPairs…}, registering it
// on first use. labelPairs alternate key, value. Nil registry → nil
// counter.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	s := r.lookup(name, "counter", nil, labelPairs)
	if s == nil {
		return nil
	}
	return &Counter{s: s}
}

// Gauge returns the gauge series name{labelPairs…}.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	s := r.lookup(name, "gauge", nil, labelPairs)
	if s == nil {
		return nil
	}
	return &Gauge{s: s}
}

// Histogram returns the histogram series name{labelPairs…} with the
// given bucket upper bounds (nil → DefBuckets). Bounds are fixed at
// first registration of the family.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	s := r.lookup(name, "histogram", bounds, labelPairs)
	if s == nil {
		return nil
	}
	return &Histogram{s: s}
}

func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func (r *Registry) lookup(name, typ string, bounds []float64, labelPairs []string) *series {
	if r == nil {
		return nil
	}
	key := renderLabels(labelPairs)

	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.fams[name]
		if f == nil {
			f = &family{name: name, typ: typ, help: r.help[name], series: map[string]*series{}}
			delete(r.help, name)
			r.fams[name] = f
		}
		r.mu.Unlock()
	}

	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: key}
	if len(labelPairs) > 0 {
		s.labelMap = make(map[string]string, len(labelPairs)/2)
		for i := 0; i+1 < len(labelPairs); i += 2 {
			s.labelMap[labelPairs[i]] = labelPairs[i+1]
		}
	}
	if typ == "histogram" {
		s.bounds = bounds
		s.buckets = make([]atomic.Int64, len(bounds)+1)
	}
	f.series[key] = s
	return s
}

// MetricPoint is one series in a registry snapshot.
type MetricPoint struct {
	Name string
	Type string
	// Series names the series as the Prometheus exposition does: the
	// bare name, or name{k="v",…} with the labels sorted by key.
	Series string
	// Labels is the registry's own map: callers must not modify it.
	Labels map[string]string
	// Value is a counter's count, a gauge's value, or a histogram's
	// number of observations.
	Value float64
}

// Snapshot returns every series in the registry, sorted by family name
// then label set: the rows of the sys_metric relation.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []MetricPoint
	for _, f := range fams {
		for _, s := range f.sorted() {
			p := MetricPoint{Name: f.name, Type: f.typ, Series: f.name, Labels: s.labelMap}
			if s.labels != "" {
				p.Series = f.name + "{" + s.labels + "}"
			}
			switch f.typ {
			case "counter":
				p.Value = float64(s.intVal.Load())
			case "gauge":
				p.Value = math.Float64frombits(s.bits.Load())
			case "histogram":
				p.Value = float64(s.count.Load())
			}
			out = append(out, p)
		}
	}
	return out
}

func (f *family) sorted() []*series {
	f.mu.RLock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.RUnlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
	return ss
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4), families sorted by name, series sorted by
// label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sorted() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	brace := func(extra string) string {
		switch {
		case s.labels == "" && extra == "":
			return ""
		case s.labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + s.labels + "}"
		default:
			return "{" + s.labels + "," + extra + "}"
		}
	}
	switch f.typ {
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, brace(""), s.intVal.Load())
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, brace(""), formatFloat(math.Float64frombits(s.bits.Load())))
		return err
	case "histogram":
		cum := int64(0)
		for i := range s.buckets {
			cum += s.buckets[i].Load()
			le := "+Inf"
			if i < len(s.bounds) {
				le = formatFloat(s.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, brace(`le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, brace(""), formatFloat(math.Float64frombits(s.sumBits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, brace(""), s.count.Load())
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
