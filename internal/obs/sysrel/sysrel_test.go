package sysrel

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kdb/internal/depgraph"
	"kdb/internal/obs"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// rows renders every tuple of rel as "a b c" strings, sorted, for
// order-insensitive comparison.
func rows(t *testing.T, rel *storage.Relation) []string {
	t.Helper()
	var out []string
	rel.Scan(func(tp storage.Tuple) bool {
		parts := make([]string, len(tp))
		for i, x := range tp {
			parts[i] = x.String()
		}
		out = append(out, strings.Join(parts, " "))
		return true
	})
	sort.Strings(out)
	return out
}

func TestDefsCatalog(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Defs() {
		if !IsName(d.Name) {
			t.Errorf("%s lacks the sys_ prefix", d.Name)
		}
		if names[d.Name] {
			t.Errorf("duplicate def %s", d.Name)
		}
		names[d.Name] = true
		if len(d.Args) != d.Arity {
			t.Errorf("%s: %d arg names for arity %d", d.Name, len(d.Args), d.Arity)
		}
		if d.Doc == "" {
			t.Errorf("%s has no doc", d.Name)
		}
		got := Lookup(d.Name)
		if got == nil || got.Name != d.Name {
			t.Errorf("Lookup(%s) = %v", d.Name, got)
		}
	}
	for _, want := range []string{"sys_relation", "sys_rule", "sys_metric",
		"sys_activity", "sys_query_stats", "sys_tenant"} {
		if !names[want] {
			t.Errorf("missing def %s", want)
		}
	}
	if len(names) != 6 {
		t.Errorf("%d defs, want 6: %v", len(names), names)
	}
	if Lookup("sys_nonesuch") != nil || Lookup("sys_metric_history") != nil || Lookup("edge") != nil {
		t.Error("Lookup invented a relation")
	}
	if sig := Lookup("sys_metric").Signature(); sig != "sys_metric(Name, Kind, Value)" {
		t.Errorf("Signature = %q", sig)
	}
}

func TestViewIsVirtual(t *testing.T) {
	v := NewProvider().View(nil, nil)
	for _, tc := range []struct {
		pred string
		want bool
	}{
		{"sys_metric", true},
		{"sys_tenant", true},
		{"sys_nonesuch", false},
		{"edge", false},
		{"sys", false},
	} {
		if got := v.IsVirtual(tc.pred); got != tc.want {
			t.Errorf("IsVirtual(%s) = %v, want %v", tc.pred, got, tc.want)
		}
	}
}

func TestSnapshotRelationAndRule(t *testing.T) {
	st := storage.NewMemory()
	for _, a := range []term.Atom{
		term.NewAtom("edge", term.Sym("a"), term.Sym("b")),
		term.NewAtom("edge", term.Sym("b"), term.Sym("c")),
		term.NewAtom("color", term.Sym("red")),
	} {
		if _, err := st.InsertAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	rules := []term.Rule{
		term.NewRule(term.NewAtom("reach", term.Var("X"), term.Var("Y")),
			term.NewAtom("edge", term.Var("X"), term.Var("Y"))),
		term.NewRule(term.NewAtom("reach", term.Var("X"), term.Var("Y")),
			term.NewAtom("edge", term.Var("X"), term.Var("Z")),
			term.NewAtom("reach", term.Var("Z"), term.Var("Y"))),
	}
	v := NewProvider().View(st, depgraph.New(rules))

	rel, err := v.Snapshot("sys_relation")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"color 1 1", "edge 2 2"}
	if got := rows(t, rel); !reflect.DeepEqual(got, want) {
		t.Errorf("sys_relation = %v, want %v", got, want)
	}

	rel, err = v.Snapshot("sys_rule")
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, rel)
	if len(got) != 2 {
		t.Fatalf("sys_rule = %v, want 2 rows", got)
	}
	// Both rules head reach; body lengths 1 and 2; same SCC index.
	if !strings.HasPrefix(got[0], "0 reach 1 ") || !strings.HasPrefix(got[1], "1 reach 2 ") {
		t.Errorf("sys_rule rows = %v", got)
	}
}

func TestSnapshotMetricAndHistory(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetHelp("queries_total", "Queries.")
	reg.Counter("queries_total").Add(3)
	reg.SetHelp("lat_seconds", "Latency.")
	h := reg.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	p := NewProvider()
	p.SetRegistry(reg)
	v := p.View(nil, nil)

	rel, err := v.Snapshot("sys_metric")
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, rel)
	wantRows := map[string]bool{}
	for _, r := range got {
		wantRows[r] = true
	}
	if !wantRows["queries_total counter 3"] {
		t.Errorf("sys_metric missing counter row: %v", got)
	}
	// Histograms expose their cumulative count as the value.
	if !wantRows["lat_seconds histogram 2"] {
		t.Errorf("sys_metric missing histogram row: %v", got)
	}

	// There is no metrics history: a series' movement over time is read
	// from sys_metric twice, or from /metrics by a scraper.
	if _, err := v.Snapshot("sys_metric_history"); err == nil {
		t.Error("sys_metric_history snapshots without error")
	}
}

func TestSnapshotActivityStatsTenants(t *testing.T) {
	p := NewProvider()
	act := obs.NewActivityRegistry()
	a := act.Begin("retrieve edge(X, Y).", "retrieve", "acme", "cli", 7, nil)
	defer act.End(a)
	p.SetActivity(act)

	qs := NewQueryStats()
	qs.Observe("retrieve edge(X, Y).", 1500*time.Microsecond)
	qs.Observe("retrieve edge(X, Y).", 500*time.Microsecond)
	p.SetQueryStats(qs)
	if p.QueryStats() != qs {
		t.Error("QueryStats accessor mismatch")
	}

	p.SetTenants(func() []TenantInfo {
		return []TenantInfo{
			{Name: "acme", Open: true},
			{Name: "globex", Degraded: true, Poisoned: true},
		}
	})
	v := p.View(nil, nil)

	rel, err := v.Snapshot("sys_activity")
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, rel)
	// "retrieve" is a reserved word, so the kind renders as a string.
	if len(got) != 1 || !strings.HasPrefix(got[0], `1 "retrieve" acme `) {
		t.Errorf("sys_activity = %v", got)
	}

	rel, err = v.Snapshot("sys_query_stats")
	if err != nil {
		t.Fatal(err)
	}
	got = rows(t, rel)
	want := []string{`"retrieve edge(X, Y)." 2 2000 1500`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sys_query_stats = %v, want %v", got, want)
	}

	rel, err = v.Snapshot("sys_tenant")
	if err != nil {
		t.Fatal(err)
	}
	got = rows(t, rel)
	want = []string{"acme 1 0 0", "globex 0 1 1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sys_tenant = %v, want %v", got, want)
	}
}

func TestSnapshotEmptyProviderAndUnknown(t *testing.T) {
	v := NewProvider().View(nil, depgraph.New(nil))
	for _, d := range Defs() {
		rel, err := v.Snapshot(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rel.Arity() != d.Arity {
			t.Errorf("%s snapshot arity %d, want %d", d.Name, rel.Arity(), d.Arity)
		}
		if rel.Len() != 0 {
			t.Errorf("%s on an empty provider has %d rows", d.Name, rel.Len())
		}
	}
	if _, err := v.Snapshot("sys_nonesuch"); err == nil {
		t.Error("unknown relation snapshots without error")
	}
}

func TestSymOrStr(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"edge", "edge"},
		{"queries_total", "queries_total"},
		{"true", `"true"`},           // reserved word must quote
		{"Upper", `"Upper"`},         // not a symbol shape
		{"", `""`},                   // empty string
		{"a-b", `"a-b"`},             // punctuation
		{`m{l="v"}`, `"m{l=\"v\"}"`}, // labeled series id
	} {
		if got := symOrStr(tc.in).String(); got != tc.want {
			t.Errorf("symOrStr(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestQueryStatsOverflow(t *testing.T) {
	qs := NewQueryStats()
	stmt := func(i int) string { return fmt.Sprintf("s%03d", i) }
	for i := 0; i < MaxStatements; i++ {
		qs.Observe(stmt(i), time.Millisecond)
	}
	qs.Observe("t1", 3*time.Millisecond) // beyond cap → overflow
	qs.Observe("t2", 4*time.Millisecond)
	qs.Observe(stmt(0), 5*time.Millisecond)

	snap := qs.Snapshot()
	if len(snap) != MaxStatements+1 {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), MaxStatements+1)
	}
	if snap[0].Statement != stmt(0) || snap[0].Count != 2 || snap[0].MaxUs != 5000 || snap[0].TotalUs != 6000 {
		t.Errorf("row %s = %+v", stmt(0), snap[0])
	}
	if snap[1].Statement != stmt(1) || snap[1].Count != 1 {
		t.Errorf("row %s = %+v", stmt(1), snap[1])
	}
	last := snap[MaxStatements]
	if last.Statement != OverflowKey || last.Count != 2 || last.TotalUs != 7000 || last.MaxUs != 4000 {
		t.Errorf("overflow row = %+v", last)
	}

	var nilStats *QueryStats
	nilStats.Observe("x", time.Second)
	if nilStats.Snapshot() != nil {
		t.Error("nil stats yields rows")
	}
}

// TestQueryStatsConcurrent: four goroutines observe twice as many
// distinct statements as the cap while they take snapshots; every
// observation is counted, past the cap under the overflow row.
func TestQueryStatsConcurrent(t *testing.T) {
	qs := NewQueryStats()
	const n = 2 * MaxStatements
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < n; i++ {
				qs.Observe(fmt.Sprintf("stmt-%d", i), time.Duration(i)*time.Microsecond)
				if i%16 == 0 {
					_ = qs.Snapshot()
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	var total int64
	snap := qs.Snapshot()
	for _, r := range snap {
		total += r.Count
	}
	if total != 4*n {
		t.Errorf("total observations %d, want %d", total, 4*n)
	}
	if len(snap) != MaxStatements+1 || snap[MaxStatements].Statement != OverflowKey {
		t.Errorf("%d rows, want %d and the overflow row last", len(snap), MaxStatements+1)
	}
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		atom term.Atom
		want string // "" for no error
	}{
		{term.NewAtom("edge", term.Var("X")), ""},
		{term.NewAtom("sys_metric", term.Var("N"), term.Var("K"), term.Var("V")), ""},
		{term.NewAtom("sys_metric_history", term.Var("N"), term.Var("A"), term.Var("V")),
			"unknown system relation sys_metric_history (the sys_ namespace is reserved)"},
		{term.NewAtom("sys_metric", term.Var("N")),
			"sys_metric used with arity 1 but the system relation is sys_metric(Name, Kind, Value)"},
	} {
		err := Check(tc.atom)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Check(%v) = %q, want %q", tc.atom, got, tc.want)
		}
	}
	ok := term.NewAtom("sys_relation", term.Var("N"), term.Var("A"), term.Var("F"))
	if n := testing.AllocsPerRun(100, func() { _ = Check(ok) }); n != 0 {
		t.Errorf("Check of a served relation allocates %v times", n)
	}
}
