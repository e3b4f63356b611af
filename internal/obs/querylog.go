package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"kdb/internal/obs/profile"
)

// QueryLogRecord is one line of the structured query log: what ran, how
// long it took, why it stopped, and the per-query EvalStats deltas. It
// is also the value QueryMetrics.Observe folds, so the log and the
// metrics read one record of each statement. The
// trace id matches the root span's ID() when tracing was enabled for
// the same query, so a slow-log line can be joined against its trace.
type QueryLogRecord struct {
	Time      time.Time `json:"-"`
	TimeRFC   string    `json:"time"`
	Statement string    `json:"stmt"`
	Kind      string    `json:"kind"`
	DurUS     int64     `json:"dur_us"`
	Error     string    `json:"error,omitempty"`
	Stop      string    `json:"stop,omitempty"`
	TraceID   uint64    `json:"trace_id,omitempty"`
	// Tenant and Client identify the remote principal when the query
	// arrived through the kdb server (ContextWithClient); both are empty
	// for library and REPL queries.
	Tenant string `json:"tenant,omitempty"`
	Client string `json:"client,omitempty"`
	// Per-query evaluation deltas; present only when the query ran a
	// retrieve-style evaluation.
	Engine      string `json:"engine,omitempty"`
	Facts       int64  `json:"facts,omitempty"`
	Lookups     int64  `json:"lookups,omitempty"`
	Probes      int64  `json:"probes,omitempty"`
	FullScans   int64  `json:"full_scans,omitempty"`
	Candidates  int64  `json:"candidates,omitempty"`
	IndexBuilds int64  `json:"index_builds,omitempty"`
	ProvEntries int64  `json:"provenance_entries,omitempty"`
	// Profile holds the per-rule cost rows when the query ran with
	// profiling enabled, so a slow-log line carries its own "explain
	// analyze" instead of requiring a re-run.
	Profile []profile.Row `json:"profile,omitempty"`
	// Counts only QueryMetrics reads: the fixpoint rounds summed over
	// the evaluation's components, the nodes a describe search expanded,
	// and the nodes an explain's trees hold.
	Iterations    int64 `json:"-"`
	DescribeNodes int64 `json:"-"`
	ExplainNodes  int64 `json:"-"`
}

// QueryLog appends one JSONL record per finished query to a writer —
// every query, or only those at or above a slow threshold. A nil
// *QueryLog is valid and records nothing, matching the package's
// nil-receiver contract.
type QueryLog struct {
	mu   sync.Mutex
	w    io.Writer
	slow time.Duration
	now  func() time.Time // test hook; nil means time.Now
}

// NewQueryLog returns a query log writing to w. With slow > 0 only
// queries of at least that duration are logged (the --slow-query
// threshold); slow == 0 logs every query.
func NewQueryLog(w io.Writer, slow time.Duration) *QueryLog {
	return &QueryLog{w: w, slow: slow}
}

// SetClock overrides the timestamp source (tests normalize time).
func (l *QueryLog) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Observe appends one record if it clears the slow threshold. Encoding
// and writing happen under the log's lock so concurrent queries never
// interleave lines.
func (l *QueryLog) Observe(rec QueryLogRecord) error {
	if l == nil {
		return nil
	}
	d := time.Duration(rec.DurUS) * time.Microsecond
	l.mu.Lock()
	defer l.mu.Unlock()
	if d < l.slow {
		return nil
	}
	if rec.Time.IsZero() {
		if l.now != nil {
			rec.Time = l.now()
		} else {
			rec.Time = time.Now()
		}
	}
	rec.TimeRFC = rec.Time.UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = l.w.Write(b)
	return err
}
