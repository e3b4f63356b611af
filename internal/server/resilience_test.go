package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"kdb/internal/fault"
)

// useSimDisk puts the tenants' stores on a fresh simulated disk for the
// rest of the test.
func useSimDisk(t *testing.T) *fault.SimDisk {
	t.Helper()
	d := fault.NewSimDisk()
	prev := fault.SetDisk(d)
	t.Cleanup(func() { fault.SetDisk(prev) })
	return d
}

// postResp sends one JSON request and returns the raw response plus
// the decoded body, for tests that need headers.
func postResp(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp, out
}

// healthz fetches and decodes /healthz.
func healthz(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// healthTenantField extracts one field of one tenant from a /healthz body.
func healthTenantField(t *testing.T, h map[string]any, tenant, field string) any {
	t.Helper()
	tenants, _ := h["tenants"].(map[string]any)
	entry, _ := tenants[tenant].(map[string]any)
	if entry == nil {
		t.Fatalf("healthz has no tenant %s: %v", tenant, h)
	}
	return entry[field]
}

// checkMetricsHelp scrapes /metrics and fails for every family whose
// TYPE line has no non-empty HELP line before it — a metric registered
// without SetHelp renders as an undocumented bare name — and for every
// wanted family the exposition lacks.
func checkMetricsHelp(t *testing.T, ts *httptest.Server, want ...string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	helped, typed := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helped[name] = strings.TrimSpace(help) != ""
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			typed[name] = true
			if !helped[name] {
				t.Errorf("/metrics: family %s has no HELP text", name)
			}
		}
	}
	for _, name := range want {
		if !typed[name] {
			t.Errorf("/metrics: no family %s", name)
		}
	}
}

// TestBreakerDegradedMode drives a tenant through the full breaker
// lifecycle: repeated storage failures trip it into read-only degraded
// mode (writes 503, reads keep serving off the in-RAM relations), and
// once the fault clears, a cooldown-gated probe write closes it again.
// By then every server metric family is registered, and each must
// carry HELP text.
func TestBreakerDegradedMode(t *testing.T) {
	disk := useSimDisk(t)
	s, ts, _ := newTestServer(t, Config{
		Root:             t.TempDir(),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		MaxInFlight:      8,
	})

	resp, out := postResp(t, ts, "/v1/kb/alpha/load", map[string]any{"program": teachingProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, out)
	}

	// Every WAL fsync fails; each assert rewinds cleanly and surfaces a
	// 503 "storage" with a Retry-After hint.
	disk.Fail(fault.OpSync, 0, 0, syscall.EIO)
	// Distinct facts each time: a duplicate assert is satisfied in RAM
	// and never reaches the WAL, so it would not exercise the fault.
	for i, fact := range []string{"takes(eve, databases)", "takes(eve, compilers)"} {
		resp, out = postResp(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": fact})
		if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "storage" {
			t.Fatalf("assert %d under fsync fault: %d %q %v", i, resp.StatusCode, errCode(t, out), out)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("storage 503 is missing Retry-After")
		}
	}

	// Two consecutive durability failures tripped the breaker: the next
	// write is rejected without touching storage.
	resp, out = postResp(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": "takes(eve, databases)"})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "degraded" {
		t.Fatalf("assert on tripped tenant: %d %q %v", resp.StatusCode, errCode(t, out), out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 is missing Retry-After")
	}
	if got := disk.Hits(); got != 2 {
		t.Errorf("degraded write reached storage: %d fsync fault hits, want 2", got)
	}

	// Reads keep working in degraded mode.
	for _, probe := range []struct{ path, stmt string }{
		{"/v1/kb/alpha/retrieve", "retrieve honor(X)."},
		{"/v1/kb/alpha/describe", "describe honor(X)."},
		{"/v1/kb/alpha/explain", "explain honor(ann)."},
	} {
		resp, out = postResp(t, ts, probe.path, map[string]any{"stmt": probe.stmt})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on degraded tenant: %d %v", probe.path, resp.StatusCode, out)
		}
	}

	h := healthz(t, ts)
	if h["ok"] != true || h["state"] != "serving" {
		t.Fatalf("healthz while degraded: %v", h)
	}
	if got := healthTenantField(t, h, "alpha", "breaker"); got != "open" {
		t.Errorf("healthz breaker = %v, want open", got)
	}
	if got := healthTenantField(t, h, "alpha", "degraded"); got != true {
		t.Errorf("healthz degraded = %v, want true", got)
	}
	// The fsync faults rewound cleanly — the WAL is not poisoned.
	if got := healthTenantField(t, h, "alpha", "poisoned"); got == true {
		t.Errorf("healthz poisoned = %v, want false/absent", got)
	}

	// Storage heals, the cooldown elapses: the next write goes through
	// as the recovery probe and closes the breaker.
	disk.Heal()
	s.breakers.mu.Lock()
	s.breakers.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.breakers.mu.Unlock()
	resp, out = postResp(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": "takes(ann, compilers)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe write: %d %v", resp.StatusCode, out)
	}
	if got := s.breakers.state("alpha"); got != "closed" {
		t.Errorf("breaker after successful probe = %s, want closed", got)
	}
	resp, out = postResp(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": "takes(bob, compilers)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write after recovery: %d %v", resp.StatusCode, out)
	}

	checkMetricsHelp(t, ts,
		"kdb_build_info", "kdb_queries_total", "kdb_wal_append_seconds", "kdb_snapshots_total",
		"kdb_server_requests_total", "kdb_server_request_seconds", "kdb_server_open_kbs",
		"kdb_server_evictions_total", "kdb_server_inflight", "kdb_server_shed_total",
		"kdb_server_breaker_state", "kdb_server_breaker_transitions_total",
		"kdb_server_breaker_probes_total", "kdb_server_prepared_total")
}

// TestBreakerProbeFailureReopens: a probe that hits a still-failing
// store re-opens the breaker for another full cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	disk := useSimDisk(t)
	s, ts, _ := newTestServer(t, Config{
		Root:             t.TempDir(),
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	// Open the tenant before arming the fault: a WAL fault during the
	// lazy open would fail the whole Acquire, never reaching the write.
	resp, out := postResp(t, ts, "/v1/kb/beta/assert", map[string]any{"fact": "p(seed)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed assert: %d %v", resp.StatusCode, out)
	}
	disk.Fail(fault.OpSync, 0, 0, syscall.EIO)
	resp, out = postResp(t, ts, "/v1/kb/beta/assert", map[string]any{"fact": "p(a)"})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "storage" {
		t.Fatalf("assert under fault: %d %v", resp.StatusCode, out)
	}
	if got := s.breakers.state("beta"); got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}
	// Cooldown elapses, but the store still fails: the probe re-trips.
	base := time.Now()
	s.breakers.mu.Lock()
	s.breakers.now = func() time.Time { return base.Add(2 * time.Hour) }
	s.breakers.mu.Unlock()
	resp, out = postResp(t, ts, "/v1/kb/beta/assert", map[string]any{"fact": "p(b)"})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "storage" {
		t.Fatalf("probe under fault: %d %v", resp.StatusCode, out)
	}
	if got := s.breakers.state("beta"); got != "open" {
		t.Fatalf("breaker after failed probe = %s, want open", got)
	}
	// Inside the new cooldown, writes shed as degraded without probing.
	resp, out = postResp(t, ts, "/v1/kb/beta/assert", map[string]any{"fact": "p(c)"})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "degraded" {
		t.Fatalf("write inside renewed cooldown: %d %v", resp.StatusCode, out)
	}
}

// TestCheckpointRecoversPoisonedTenant: a failed WAL fsync whose rewind
// fails too poisons the log (every later write fails), and the
// /checkpoint route is the recovery path — it snapshots the in-RAM
// state, resets the log, and closes the breaker, all in one request.
func TestCheckpointRecoversPoisonedTenant(t *testing.T) {
	disk := useSimDisk(t)
	s, ts, _ := newTestServer(t, Config{
		Root:             t.TempDir(),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	resp, out := postResp(t, ts, "/v1/kb/gamma/assert", map[string]any{"fact": "p(a)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assert: %d %v", resp.StatusCode, out)
	}
	disk.Fail(fault.OpSync, 0, 1, syscall.EIO)
	disk.Fail(fault.OpTruncate, 0, 1, syscall.EIO)
	// The failed write poisons the log; the next (distinct) fact fails
	// on the poison, tripping the breaker at threshold 2.
	for i, fact := range []string{"p(b)", "p(c)"} {
		resp, out = postResp(t, ts, "/v1/kb/gamma/assert", map[string]any{"fact": fact})
		if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "storage" {
			t.Fatalf("assert %d on poisoned log: %d %v", i, resp.StatusCode, out)
		}
	}
	disk.Heal()
	h := healthz(t, ts)
	if got := healthTenantField(t, h, "gamma", "poisoned"); got != true {
		t.Fatalf("healthz poisoned = %v, want true", got)
	}
	if got := s.breakers.state("gamma"); got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}

	// Recovery: checkpoint bypasses the breaker, captures RAM state,
	// clears the poison, and closes the breaker.
	resp, out = postResp(t, ts, "/v1/kb/gamma/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}
	if got := s.breakers.state("gamma"); got != "closed" {
		t.Errorf("breaker after checkpoint = %s, want closed", got)
	}
	h = healthz(t, ts)
	if got := healthTenantField(t, h, "gamma", "poisoned"); got == true {
		t.Errorf("healthz poisoned after checkpoint = %v, want cleared", got)
	}
	resp, out = postResp(t, ts, "/v1/kb/gamma/assert", map[string]any{"fact": "p(d)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assert after recovery: %d %v", resp.StatusCode, out)
	}
	// The failed facts reached RAM before their appends failed, so
	// the checkpoint made them durable: a, b, c, d are all present.
	resp, out = postResp(t, ts, "/v1/kb/gamma/retrieve", map[string]any{"stmt": "retrieve p(X)."})
	if resp.StatusCode != http.StatusOK || len(answers(out)) != 4 {
		t.Fatalf("retrieve after recovery: %d %v", resp.StatusCode, out)
	}
}

// TestAdmissionSheds: with one in-flight slot, a request that arrives
// while another is being served is shed with 503 + Retry-After instead
// of queueing.
func TestAdmissionSheds(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, ts, reg := newTestServer(t, Config{MaxInFlight: 1})
	resp, out := postResp(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, out)
	}

	// The first request parks inside the data plane (injected latency),
	// holding the only slot.
	if err := fault.Enable(fault.SiteRequest, fault.Outcome{Delay: 500 * time.Millisecond}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postResp(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve p(X)."})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow request: %d", resp.StatusCode)
		}
	}()
	// Wait until the slow request is inside its slot.
	deadline := time.Now().Add(2 * time.Second)
	for fault.Hits(fault.SiteRequest) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never reached the data plane")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, out = postResp(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve p(X)."})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "overloaded" {
		t.Fatalf("concurrent request: %d %q %v, want 503 overloaded", resp.StatusCode, errCode(t, out), out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response is missing Retry-After")
	}
	wg.Wait()
	if got := reg.Counter("kdb_server_shed_total").Value(); got != 1 {
		t.Errorf("kdb_server_shed_total = %d, want 1", got)
	}
	// The slot is free again.
	resp, _ = postResp(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve p(X)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after drain: %d", resp.StatusCode)
	}
}

// TestLimitResponseCarriesRetryAfter: the pre-existing 429 (limit
// breach) now carries a Retry-After hint too.
func TestLimitResponseCarriesRetryAfter(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{RetryAfter: 3 * time.Second})
	resp, out := postResp(t, ts, "/v1/kb/alpha/load", map[string]any{
		"program": "edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, out)
	}
	resp, out = postResp(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt":   "retrieve path(X, Y).",
		"limits": map[string]any{"max_facts": 1},
	})
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, out) != "limit" {
		t.Fatalf("limited retrieve: %d %q %v", resp.StatusCode, errCode(t, out), out)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want 3", got)
	}
}

// TestTenantOpenFaultIsTransient: a fault at tenant open fails that
// request but leaves nothing cached — the next request opens cleanly.
func TestTenantOpenFaultIsTransient(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, ts, _ := newTestServer(t, Config{})
	if err := fault.Enable(fault.SiteTenantOpen, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	resp, out := postResp(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."})
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, out) != "storage" {
		t.Fatalf("load under open fault: %d %q %v", resp.StatusCode, errCode(t, out), out)
	}
	resp, out = postResp(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load after fault: %d %v", resp.StatusCode, out)
	}
}
