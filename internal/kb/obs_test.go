package kb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/parser"
)

const obsTestProgram = `
student(ann, math, 3.9).
student(bob, cs, 3.5).
enroll(ann, databases).
honor(X) :- student(X, M, G), G > 3.7.
`

// spanNames collects the names of a span's direct children.
func spanNames(sp *obs.Span) []string {
	var out []string
	for _, c := range sp.Children() {
		out = append(out, c.Name())
	}
	return out
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestTracedDescribeSpanTree is the acceptance shape: a describe query
// through the string path records parse, analyze, eval, and describe
// phases with nonzero durations under one root.
func TestTracedDescribeSpanTree(t *testing.T) {
	tr := obs.NewTracer()
	k := New(WithTracer(tr))
	if err := k.LoadString(obsTestProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `describe honor(X).`); err != nil {
		t.Fatal(err)
	}
	root := tr.Last()
	if root == nil {
		t.Fatal("no trace recorded")
	}
	if root.Name() != "query" {
		t.Errorf("root = %q, want query", root.Name())
	}
	kindOK := false
	for _, a := range root.Attrs() {
		if a.Key == "kind" && a.Str == "describe" {
			kindOK = true
		}
	}
	if !kindOK {
		t.Errorf("root attrs = %v, want kind=describe", root.Attrs())
	}
	names := spanNames(root)
	for _, phase := range []string{"parse", "analyze", "eval", "describe"} {
		if !hasName(names, phase) {
			t.Errorf("missing %q phase; children = %v", phase, names)
		}
	}
	for _, c := range root.Children() {
		if c.Duration() <= 0 {
			t.Errorf("phase %q has zero duration", c.Name())
		}
	}
	if root.Duration() <= 0 {
		t.Error("root has zero duration")
	}
}

// TestTracedRetrieveSpanTree checks the retrieve path: analyze and eval
// phases, per-SCC children, and a storage probe summary.
func TestTracedRetrieveSpanTree(t *testing.T) {
	tr := obs.NewTracer()
	k := New(WithTracer(tr))
	if err := k.LoadString(obsTestProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	root := tr.Last()
	if root == nil {
		t.Fatal("no trace recorded")
	}
	names := spanNames(root)
	for _, phase := range []string{"parse", "analyze", "eval", "storage"} {
		if !hasName(names, phase) {
			t.Errorf("missing %q phase; children = %v", phase, names)
		}
	}
	sccs := 0
	for _, c := range root.Children() {
		if c.Name() != "eval" {
			continue
		}
		for _, s := range c.Children() {
			if s.Name() == "scc" {
				sccs++
			}
		}
	}
	if sccs == 0 {
		t.Error("no scc spans under eval")
	}
}

// TestTraceSingleRootPerQuery guards the double-counting bug:
// ExecStringContext delegates to ExecContext, and only the outermost
// layer may open a root span and record the query metrics.
func TestTraceSingleRootPerQuery(t *testing.T) {
	tr := obs.NewTracer()
	roots := 0
	tr.OnFinish(func(*obs.Span) { roots++ })
	reg := obs.NewRegistry()
	k := New(WithTracer(tr), WithMetrics(reg))
	if err := k.LoadString(obsTestProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	if got := roots; got != 1 {
		t.Errorf("traces recorded = %d, want 1", got)
	}
	total := 0.0
	for _, p := range reg.Snapshot() {
		if p.Name == "kdb_queries_total" {
			total += p.Value
		}
	}
	if total != 1 {
		t.Errorf("kdb_queries_total = %v, want 1", total)
	}
}

// TestMetricsRecording checks the fold of evaluation statistics and
// describe work into the registry.
func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg))
	if err := k.LoadString(obsTestProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `describe honor(X).`); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	var latencyCount float64
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "kdb_queries_total", "kdb_facts_derived_total", "kdb_describe_nodes_total":
			got[p.Name] += p.Value
		case "kdb_query_duration_seconds":
			latencyCount += p.Value
		}
	}
	if got["kdb_queries_total"] != 2 {
		t.Errorf("kdb_queries_total = %v, want 2", got["kdb_queries_total"])
	}
	if latencyCount != 2 {
		t.Errorf("latency observations = %v, want 2", latencyCount)
	}
	if got["kdb_facts_derived_total"] == 0 {
		t.Error("kdb_facts_derived_total = 0, want > 0")
	}
	if got["kdb_describe_nodes_total"] == 0 {
		t.Error("kdb_describe_nodes_total = 0, want > 0")
	}
}

// TestStopReasonMetric checks governed stops land in
// kdb_query_stops_total with the structured reason.
func TestStopReasonMetric(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%50)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg), WithQueryLimits(governor.Limits{MaxFacts: 5}))
	if err := k.LoadString(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`); err == nil {
		t.Fatal("expected a limit stop")
	}
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == "kdb_query_stops_total" && p.Labels["reason"] == "limit:facts" && p.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("kdb_query_stops_total{reason=\"limit:facts\"} not recorded")
	}
}

// TestSetTracerRuntimeToggle mirrors the REPL's `.trace on|off`.
func TestSetTracerRuntimeToggle(t *testing.T) {
	k := New()
	if err := k.LoadString(obsTestProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	k.SetTracer(tr)
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	if tr.Last() == nil {
		t.Fatal("no trace after SetTracer")
	}
	k.SetTracer(nil)
	prev := tr.Last()
	if _, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`); err != nil {
		t.Fatal(err)
	}
	if tr.Last() != prev {
		t.Error("trace recorded after SetTracer(nil)")
	}
}

// TestExecObservationAllocs gates what ExecContext's observation scope
// adds to a statement, measured as ExecContext minus execContext: nothing
// with no sink attached, and at most 10 allocations with the sinks the
// server attaches to every tenant (metrics, activity, query stats).
func TestExecObservationAllocs(t *testing.T) {
	q, err := parser.ParseQuery("retrieve edge(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []Option
		max  float64
	}{
		{"nothing attached", nil, 0},
		{"metrics, activity, query stats", []Option{WithMetrics(obs.NewRegistry()),
			WithActivity(obs.NewActivityRegistry()), WithQueryStats()}, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := New(c.opts...)
			if err := k.LoadString("edge(a, b). edge(a, c). edge(b, c)."); err != nil {
				t.Fatal(err)
			}
			ctx := t.Context()
			exec := testing.AllocsPerRun(200, func() {
				if _, err := k.ExecContext(ctx, q); err != nil {
					t.Fatal(err)
				}
			})
			inner := testing.AllocsPerRun(200, func() {
				if _, err := k.execContext(ctx, q); err != nil {
					t.Fatal(err)
				}
			})
			if got := exec - inner; got > c.max {
				t.Errorf("observation adds %v allocations per statement (%v - %v), want <= %v", got, exec, inner, c.max)
			}
		})
	}
}
