package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeBasics(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("query")
	root.SetStr("kind", "retrieve")
	child := root.Child("eval")
	child.SetInt("facts", 7)
	child.End()
	tr.Finish(root)

	if got := tr.Last(); got != root {
		t.Fatalf("Last() = %v, want root", got)
	}
	if root.Duration() <= 0 {
		t.Errorf("root duration = %v, want > 0", root.Duration())
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "eval" {
		t.Fatalf("children = %v, want one eval span", kids)
	}
	attrs := kids[0].Attrs()
	if len(attrs) != 1 || attrs[0].Key != "facts" || attrs[0].Int != 7 {
		t.Errorf("attrs = %v, want facts=7", attrs)
	}
}

// TestSpanThen: children added by Then lie end to end from the parent's
// start, each exactly as long as asked, finished, in the parent's trace.
func TestSpanThen(t *testing.T) {
	root := NewTracer().StartWithID("query", 42)
	a := root.Then("parse", 3*time.Microsecond)
	b := root.Then("storage", 0)
	c := root.Then("eval", 5*time.Microsecond)
	scc := c.Then("scc", 2*time.Microsecond)
	for _, x := range []struct {
		sp    *Span
		start time.Time
		d     time.Duration
	}{
		{a, root.Start(), 3 * time.Microsecond},
		{b, root.Start().Add(3 * time.Microsecond), 0},
		{c, root.Start().Add(3 * time.Microsecond), 5 * time.Microsecond},
		{scc, c.Start(), 2 * time.Microsecond},
	} {
		if !x.sp.Start().Equal(x.start) || x.sp.Duration() != x.d {
			t.Errorf("%s spans [%v, +%v), want [%v, +%v)", x.sp.Name(), x.sp.Start(), x.sp.Duration(), x.start, x.d)
		}
		if x.sp.TraceID() != 42 {
			t.Errorf("%s trace id = %d, want the root's 42", x.sp.Name(), x.sp.TraceID())
		}
	}
	if got := len(root.Children()); got != 3 {
		t.Errorf("root has %d children, want 3", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every method must no-op on a nil receiver — the disabled path.
	var tr *Tracer
	sp := tr.Start("query")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.SetBool("k", true)
	sp.End()
	if c := sp.Child("x"); c != nil {
		t.Errorf("nil span Child = %v, want nil", c)
	}
	if c := sp.Then("x", time.Second); c != nil {
		t.Errorf("nil span Then = %v, want nil", c)
	}
	tr.Finish(sp)
	if tr.Last() != nil {
		t.Error("nil tracer should report no spans")
	}

	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h", nil).Observe(1)
	reg.SetHelp("c", "x")
	if reg.Snapshot() != nil {
		t.Error("nil registry Snapshot should be nil")
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}

	var qm *QueryMetrics
	qm.Observe(QueryLogRecord{Kind: "retrieve", DurUS: 1000, Facts: 1, DescribeNodes: 1, ExplainNodes: 3})
	var sm *StorageMetrics
	sm.ObserveWALAppend(time.Millisecond, 10)
	sm.ObserveWALSync(time.Millisecond)
	sm.ObserveSnapshot(time.Millisecond, 100)
}

func TestContextPlumbing(t *testing.T) {
	ctx := t.Context()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(nil span) must return ctx unchanged")
	}
	if sp := SpanFromContext(ctx); sp != nil {
		t.Errorf("SpanFromContext(empty) = %v, want nil", sp)
	}
	tr := NewTracer()
	root := tr.Start("q")
	ctx2 := ContextWithSpan(ctx, root)
	if got := SpanFromContext(ctx2); got != root {
		t.Errorf("SpanFromContext = %v, want root", got)
	}
}

// TestConcurrentSpans exercises a span tree from many goroutines; run
// with -race it verifies the locking discipline.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("query")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("scc")
				c.SetInt("w", int64(w))
				c.SetInt("i", int64(i))
				c.End()
				_ = root.Children()
				_ = root.Attrs()
			}
		}(w)
	}
	wg.Wait()
	tr.Finish(root)
	if got := len(root.Children()); got != 8*50 {
		t.Errorf("children = %d, want %d", got, 8*50)
	}
}

// TestConcurrentMetrics hammers one registry from many goroutines; with
// -race it verifies the atomic internals.
func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("ops_total", "Operations.")
	reg.SetHelp("depth", "Depth.")
	reg.SetHelp("lat_seconds", "Latency.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("ops_total", "worker", string(rune('a'+w)))
			g := reg.Gauge("depth")
			h := reg.Histogram("lat_seconds", nil)
			for i := 0; i < 200; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / 1000)
				if i%50 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, p := range reg.Snapshot() {
		if p.Name == "ops_total" {
			total += int64(p.Value)
		}
		if p.Name == "lat_seconds" {
			if p.Value != 8*200 {
				t.Errorf("histogram count = %v, want %d", p.Value, 8*200)
			}
		}
	}
	if total != 8*200 {
		t.Errorf("counter total = %d, want %d", total, 8*200)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := validatePrometheus(buf.String()); err != nil {
		t.Fatalf("invalid exposition after concurrent load: %v", err)
	}
}

// buildSampleTrace makes a deterministic-shape trace for export tests.
func buildSampleTrace() *Span {
	tr := NewTracer()
	root := tr.Start("query")
	root.SetStr("kind", "describe")
	p := root.Child("parse")
	p.End()
	a := root.Child("analyze")
	a.End()
	e := root.Child("eval")
	s := e.Child("scc")
	s.SetInt("facts", 3)
	s.End()
	e.SetInt("facts", 3)
	e.End()
	d := root.Child("describe")
	d.SetInt("formulas", 2)
	d.End()
	tr.Finish(root)
	return root
}

var (
	usRe     = regexp.MustCompile(`"(start_us|dur_us)":\d+`)
	spanIDRe = regexp.MustCompile(`"span_id":\d+`)
)

func TestJSONLGolden(t *testing.T) {
	root := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, root); err != nil {
		t.Fatal(err)
	}
	got := usRe.ReplaceAllString(buf.String(), `"$1":0`)
	// The root's span_id is the process-unique counter; normalize it but
	// require its presence (query-log records join on it).
	if !spanIDRe.MatchString(got) {
		t.Errorf("root record missing span_id:\n%s", got)
	}
	got = spanIDRe.ReplaceAllString(got, `"span_id":7`)
	want := strings.Join([]string{
		`{"id":0,"parent":-1,"span_id":7,"name":"query","start_us":0,"dur_us":0,"attrs":{"kind":"describe"}}`,
		`{"id":1,"parent":0,"name":"parse","start_us":0,"dur_us":0}`,
		`{"id":2,"parent":0,"name":"analyze","start_us":0,"dur_us":0}`,
		`{"id":3,"parent":0,"name":"eval","start_us":0,"dur_us":0,"attrs":{"facts":3}}`,
		`{"id":4,"parent":3,"name":"scc","start_us":0,"dur_us":0,"attrs":{"facts":3}}`,
		`{"id":5,"parent":0,"name":"describe","start_us":0,"dur_us":0,"attrs":{"formulas":2}}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("JSONL mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	// Every line must be standalone valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %q: %v", line, err)
		}
	}
}

func TestWriteTree(t *testing.T) {
	root := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteTree(&buf, root); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"query", "parse", "analyze", "eval", "scc", "describe", "kind=describe"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestOnFinishCallback(t *testing.T) {
	tr := NewTracer()
	var got []*Span
	tr.OnFinish(func(sp *Span) { got = append(got, sp) })
	sp := tr.Start("q")
	tr.Finish(sp)
	if len(got) != 1 || got[0] != sp {
		t.Fatalf("OnFinish saw %v, want the finished root", got)
	}
}

func TestSetHelpBeforeAndAfterRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("early_total", "Registered after help.")
	reg.Counter("early_total").Inc()
	reg.Counter("late_total").Inc()
	reg.SetHelp("late_total", "Registered before help.")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP early_total Registered after help.",
		"# HELP late_total Registered before help.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsEndpointPrometheusFormat is the CI gate: the /metrics
// endpoint must serve text that parses as Prometheus exposition format,
// including the query-latency histograms, over a registry holding every
// kdb_* family this package registers — so each must carry HELP text.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	qm := NewQueryMetrics(reg)
	sm := NewStorageMetrics(reg)
	qm.Observe(QueryLogRecord{Kind: "retrieve", DurUS: 2000, Facts: 10, Lookups: 20, Probes: 30,
		Candidates: 40, IndexBuilds: 1, Iterations: 3, ProvEntries: 2, ExplainNodes: 5})
	qm.Observe(QueryLogRecord{Kind: "describe", DurUS: 5000, Stop: "limit:describe-nodes",
		Error: "limit", DescribeNodes: 12})
	sm.ObserveWALAppend(time.Millisecond, 128)
	sm.ObserveWALSync(time.Millisecond)
	sm.ObserveSnapshot(3*time.Millisecond, 4096)

	srv := httptest.NewServer(DebugHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := validatePrometheus(text); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	for _, want := range []string{
		`kdb_query_duration_seconds_bucket{kind="retrieve",le="+Inf"} 1`,
		`kdb_query_duration_seconds_count{kind="retrieve"} 1`,
		`kdb_query_stops_total{reason="limit:describe-nodes"} 1`,
		`kdb_wal_append_bytes_total 128`,
		`kdb_snapshot_bytes 4096`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The other debug surfaces must answer too; expvar's /debug/vars,
	// a second rendering of this registry, is not served.
	for path, want := range map[string]int{"/debug/pprof/": 200, "/": 200, "/debug/vars": 404} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %s, want %d", path, resp.Status, want)
		}
	}
}

func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",             // no samples
		"just words\n", // not a sample line
		"# HELP x X.\n# TYPE x counter\n# TYPE x gauge\nx 1\n", // duplicate TYPE
		"# TYPE x counter\nx 1\n",                              // no HELP
		"# HELP x \n# TYPE x counter\nx 1\n",                   // empty HELP
	} {
		if err := validatePrometheus(bad); err == nil {
			t.Errorf("validatePrometheus(%q) = nil, want error", bad)
		}
	}
}

// TestDisabledPathAllocs asserts the zero-cost contract: with no tracer
// and no metrics, the instrumentation call sites allocate nothing. A
// gauge set on a live registry allocates nothing either.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("g")
	live := NewRegistry().Gauge("g")
	h := reg.Histogram("h", nil)
	ctx := t.Context()
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("query")
		ctx2 := ContextWithSpan(ctx, sp)
		child := SpanFromContext(ctx2).Child("eval")
		child.SetInt("facts", 1)
		child.SetStr("engine", "seminaive")
		child.End()
		tr.Finish(sp)
		c.Inc()
		g.Set(1)
		live.Set(2)
		h.Observe(0.001)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkNilTracer measures the disabled-path overhead; -benchmem
// must report 0 allocs/op.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	ctx := b.Context()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("query")
		ctx2 := ContextWithSpan(ctx, sp)
		child := SpanFromContext(ctx2).Child("eval")
		child.SetInt("facts", int64(i))
		child.End()
		tr.Finish(sp)
	}
}

// BenchmarkEnabledTracer is the contrast case: the real cost when a
// tracer is attached.
func BenchmarkEnabledTracer(b *testing.B) {
	tr := NewTracer()
	ctx := b.Context()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("query")
		ctx2 := ContextWithSpan(ctx, sp)
		child := SpanFromContext(ctx2).Child("eval")
		child.SetInt("facts", int64(i))
		child.End()
		tr.Finish(sp)
	}
}
