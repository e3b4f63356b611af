package server

import (
	"net/http"
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
