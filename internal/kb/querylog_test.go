package kb

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

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
