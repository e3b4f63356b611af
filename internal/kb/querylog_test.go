package kb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
)

func fixedClock() func() time.Time {
	return func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
}

func TestQueryLogRecordsQueries(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	ql.SetClock(fixedClock())
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve hub(X)."); err == nil {
		// hub is not defined in routesProgram; either way the log gets a line.
		t.Log("retrieve hub succeeded")
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "explain reachable(la, ny)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "this is not a statement."); err == nil {
		t.Fatal("malformed statement parsed")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d log lines, want 4:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Time        string `json:"time"`
		Stmt        string `json:"stmt"`
		Kind        string `json:"kind"`
		DurUS       int64  `json:"dur_us"`
		Error       string `json:"error"`
		Engine      string `json:"engine"`
		Facts       int64  `json:"facts"`
		ProvEntries int64  `json:"provenance_entries"`
	}
	var recs []rec
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if r.Time != "2026-01-02T03:04:05Z" {
			t.Errorf("time = %q, want the fixed clock", r.Time)
		}
		recs = append(recs, r)
	}
	if recs[1].Kind != "retrieve" || recs[1].Stmt != "retrieve reachable(la, X)." {
		t.Errorf("retrieve record: %+v", recs[1])
	}
	if recs[1].Engine != "seminaive" || recs[1].Facts == 0 {
		t.Errorf("retrieve record missing eval deltas: %+v", recs[1])
	}
	if recs[1].ProvEntries != 0 {
		t.Errorf("plain retrieve recorded provenance: %+v", recs[1])
	}
	if recs[2].Kind != "explain" || recs[2].ProvEntries == 0 {
		t.Errorf("explain record: %+v", recs[2])
	}
	if recs[3].Kind != "parse" || recs[3].Error == "" {
		t.Errorf("parse-failure record: %+v", recs[3])
	}
}

func TestQueryLogSlowThreshold(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, time.Hour) // nothing is that slow
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast query logged despite slow threshold: %s", buf.String())
	}
}

func TestQueryLogTraceID(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	tr := obs.NewTracer()
	k := New(WithQueryLog(ql), WithTracer(tr))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TraceID == 0 {
		t.Error("trace_id missing with tracing enabled")
	}
	if root := tr.Last(); root == nil || root.ID() != rec.TraceID {
		t.Error("trace_id does not match the root span")
	}
	// File-level join: the JSONL trace export carries the same id as
	// span_id on its root record.
	var trace bytes.Buffer
	if err := obs.WriteJSONL(&trace, tr.Last()); err != nil {
		t.Fatal(err)
	}
	var span struct {
		SpanID uint64 `json:"span_id"`
	}
	first, _, _ := bytes.Cut(trace.Bytes(), []byte("\n"))
	if err := json.Unmarshal(first, &span); err != nil {
		t.Fatal(err)
	}
	if span.SpanID != rec.TraceID {
		t.Errorf("trace file span_id = %d, query log trace_id = %d", span.SpanID, rec.TraceID)
	}
}

// chainProgram is the transitive closure of an n-node chain: n(n-1)/2
// path facts, derived in n-1 semi-naive rounds.
func chainProgram(n int) string {
	var sb strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, i+1)
	}
	sb.WriteString("path(X, Y) :- edge(X, Y).\n")
	sb.WriteString("path(X, Y) :- edge(X, Z), path(Z, Y).\n")
	return sb.String()
}

// logRecord is the part of a query-log line the statement-ownership
// tests read.
type logRecord struct {
	Stmt    string `json:"stmt"`
	Kind    string `json:"kind"`
	Stop    string `json:"stop"`
	Facts   int64  `json:"facts"`
	Lookups int64  `json:"lookups"`
	Profile []struct {
		Rule string `json:"rule"`
	} `json:"profile"`
}

func logRecords(t *testing.T, buf *bytes.Buffer) []logRecord {
	t.Helper()
	var out []logRecord
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r logRecord
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		out = append(out, r)
	}
	return out
}

// TestConcurrentStatementsOwnTheirStats: statements running at once on
// one KB each report their own evaluation record. A describe evaluates
// nothing, so its log record carries no facts; every retrieve record
// shows what the same retrieve derives alone; and the derived-facts
// counter is the sum over the retrieve records.
func TestConcurrentStatementsOwnTheirStats(t *testing.T) {
	const (
		retrieve = "retrieve path(X, Y)."
		describe = "describe path(X, Y)."
		perG     = 200
	)
	program := chainProgram(41)

	var alone bytes.Buffer
	k := New(WithQueryLog(obs.NewQueryLog(&alone, 0)))
	if err := k.LoadString(program); err != nil {
		t.Fatal(err)
	}
	execStr(t, k, retrieve)
	want := logRecords(t, &alone)[0]
	if want.Facts == 0 {
		t.Fatalf("single-run record has no facts: %+v", want)
	}

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	k = New(WithQueryLog(obs.NewQueryLog(&buf, 0)), WithMetrics(reg))
	if err := k.LoadString(program); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, stmt := range []string{retrieve, retrieve, describe, describe} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				if _, err := k.ExecStringContext(context.Background(), stmt); err != nil {
					errs <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	recs := logRecords(t, &buf)
	if len(recs) != 4*perG {
		t.Fatalf("%d log records, want %d", len(recs), 4*perG)
	}
	var sum int64
	bad := 0
	for _, r := range recs {
		switch r.Kind {
		case "describe":
			if r.Facts != 0 || r.Lookups != 0 {
				bad++
			}
		case "retrieve":
			sum += r.Facts
			if r.Facts != want.Facts || r.Lookups != want.Lookups {
				bad++
			}
		default:
			t.Fatalf("unexpected record %+v", r)
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d records carry another statement's stats (retrieve alone: facts %d, lookups %d)",
			bad, len(recs), want.Facts, want.Lookups)
	}
	var derived float64
	for _, p := range reg.Snapshot() {
		if p.Name == "kdb_facts_derived_total" {
			derived += p.Value
		}
	}
	if int64(derived) != sum {
		t.Errorf("kdb_facts_derived_total = %v, want %d: the sum over the retrieve records", derived, sum)
	}
}

// TestQueryLogKeepsProfileOnStop: a profiled statement stopped by a limit
// still logs its stop, the evaluation record up to the stop, and the
// per-rule rows it recorded.
func TestQueryLogKeepsProfileOnStop(t *testing.T) {
	var buf bytes.Buffer
	k := New(WithQueryLog(obs.NewQueryLog(&buf, 0)), WithQueryLimits(governor.Limits{MaxFacts: 3}))
	if err := k.LoadString(chainProgram(41)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "profile path(X, Y)."); err == nil {
		t.Fatal("expected a limit stop")
	}
	recs := logRecords(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("%d log records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != "profile" || r.Stop != "limit:facts" {
		t.Errorf("record = %+v, want kind profile, stop limit:facts", r)
	}
	if r.Facts == 0 || r.Lookups == 0 {
		t.Errorf("record lacks the evaluation deltas up to the stop: %+v", r)
	}
	if len(r.Profile) == 0 {
		t.Errorf("record lacks the profile rows: %s", buf.String())
	}
}
