package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestSysRelationsOverHTTP: the engine's own telemetry answers through
// the ordinary query routes — sys_metric after real traffic, sys_tenant
// reflecting the server's tenant table, describe on the fixed schema —
// and the deleted metrics history is an unknown relation.
func TestSysRelationsOverHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	for _, tenant := range []string{"alpha", "beta"} {
		if code, out := post(t, ts, "/v1/kb/"+tenant+"/load", map[string]any{"program": "p(a). q(X) :- p(X)."}); code != http.StatusOK {
			t.Fatalf("load %s: %d %v", tenant, code, out)
		}
	}
	// Traffic so the request counters are non-zero.
	if code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve q(X)."}); code != http.StatusOK {
		t.Fatalf("warm-up retrieve: %d %v", code, out)
	}

	code, out := post(t, ts, "/v1/kb/alpha/retrieve",
		map[string]any{"stmt": "retrieve sys_metric(N, counter, V) where V > 0."})
	if code != http.StatusOK {
		t.Fatalf("sys_metric retrieve: %d %v", code, out)
	}
	if got := answers(out); len(got) == 0 {
		t.Error("sys_metric returned no counter rows on a served KB")
	}

	code, out = post(t, ts, "/v1/kb/alpha/retrieve",
		map[string]any{"stmt": "retrieve sys_tenant(N, O, D, P)."})
	if code != http.StatusOK {
		t.Fatalf("sys_tenant retrieve: %d %v", code, out)
	}
	got := answers(out)
	if len(got) != 2 {
		t.Fatalf("sys_tenant = %v, want both tenants", got)
	}
	for _, want := range []string{"sys_tenant(alpha, 1, 0, 0)", "sys_tenant(beta, 1, 0, 0)"} {
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("sys_tenant = %v, missing %s", got, want)
		}
	}

	// sys_query_stats is on for served KBs; the warm-up statement shows up.
	code, out = post(t, ts, "/v1/kb/alpha/retrieve",
		map[string]any{"stmt": "retrieve sys_query_stats(S, C, T, M)."})
	if code != http.StatusOK {
		t.Fatalf("sys_query_stats retrieve: %d %v", code, out)
	}
	found := false
	for _, g := range answers(out) {
		if strings.Contains(g, "retrieve q(X).") {
			found = true
		}
	}
	if !found {
		t.Errorf("sys_query_stats = %v, missing the warm-up statement", answers(out))
	}

	code, out = post(t, ts, "/v1/kb/alpha/describe", map[string]any{"stmt": "describe sys_relation."})
	if code != http.StatusOK {
		t.Fatalf("describe sys_relation: %d %v", code, out)
	}
	if got := answers(out); len(got) == 0 || !strings.Contains(got[0], "sys_relation(Name, Arity, Facts)") {
		t.Errorf("describe sys_relation = %v", answers(out))
	}

	// The namespace is reserved over HTTP too.
	if code, _ := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "sys_thing(a)."}); code == http.StatusOK {
		t.Error("loading a sys_ definition over HTTP succeeded")
	}
	if code, _ := post(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": "sys_metric(a, counter, 1)"}); code == http.StatusOK {
		t.Error("asserting a sys_ fact over HTTP succeeded")
	}

	// There is no metrics history: the relation is unknown, answering
	// with a structured client error.
	code, out = post(t, ts, "/v1/kb/alpha/retrieve",
		map[string]any{"stmt": "retrieve sys_metric_history(N, A, V)."})
	if code != http.StatusBadRequest || errCode(t, out) != "system-relation" {
		t.Errorf("sys_metric_history retrieve: %d %v, want 400 system-relation", code, out)
	}
}

// TestSysMetricKeyIsTheExpositionSeries: sys_metric names every series
// as /metrics does, labels included (kdb_queries_total{kind="retrieve"}),
// so a row joins to its exposition line by name. A histogram's row is
// named like its _count line without the suffix.
func TestSysMetricKeyIsTheExpositionSeries(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a). q(X) :- p(X)."}); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}
	if code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve q(X)."}); code != http.StatusOK {
		t.Fatalf("retrieve: %d %v", code, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve sys_metric(N, K, V)."})
	if code != http.StatusOK {
		t.Fatalf("sys_metric retrieve: %d %v", code, out)
	}
	keys := map[string]bool{}
	for _, a := range answers(out) {
		name := strings.TrimSuffix(strings.TrimPrefix(a, "sys_metric("), ")")
		for range 2 {
			name = name[:strings.LastIndex(name, ", ")]
		}
		if unq, err := strconv.Unquote(name); err == nil {
			name = unq
		}
		keys[name] = true
	}

	histogram := map[string]bool{}
	series := 0
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "histogram" {
			histogram[f[2]] = true
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.LastIndexByte(line, ' ')]
		family, labels, _ := strings.Cut(name, "{")
		if base, ok := strings.CutSuffix(family, "_count"); ok && histogram[base] {
			name = base
			if labels != "" {
				name += "{" + labels
			}
		} else if histogram[strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum")] {
			continue
		}
		series++
		if !keys[name] {
			t.Errorf("exposition series %s is no sys_metric key", name)
		}
	}
	if !keys[`kdb_queries_total{kind="retrieve"}`] {
		t.Errorf("sys_metric has no key kdb_queries_total{kind=\"retrieve\"}: %v", keys)
	}
	if series != len(keys) {
		t.Errorf("%d exposition series, %d sys_metric keys", series, len(keys))
	}
}
