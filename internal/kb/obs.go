package kb

import (
	"context"
	"time"

	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
)

// WithTracer attaches a span tracer: every ExecContext/ExecStringContext
// statement records a span tree (parse, analyze, eval, describe, storage
// phases) that the tracer retains and hands to its OnFinish callback. A
// nil tracer keeps the query path allocation-free.
func WithTracer(t *obs.Tracer) Option {
	return func(k *KB) { k.tracer.Store(t) }
}

// WithMetrics registers the knowledge base's instruments on reg — query
// latency histograms by statement kind, derived-fact and lookup tallies,
// governor stop reasons — and wires the storage observer so WAL append,
// fsync, and snapshot timings land on the same registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(k *KB) {
		if reg == nil {
			return
		}
		k.qmetrics.Store(obs.NewQueryMetrics(reg))
		k.store.SetObserver(obs.NewStorageMetrics(reg))
		k.sys.SetRegistry(reg)
	}
}

// WithQueryStats turns on per-statement execution statistics: every
// finished Exec-path query folds its latency into a bounded
// per-statement aggregate, queryable as the sys_query_stats virtual
// relation. Off by default — the aggregate costs one mutex-guarded
// map update per query.
func WithQueryStats() Option {
	return func(k *KB) {
		qs := sysrel.NewQueryStats(0)
		k.qstats.Store(qs)
		k.sys.SetQueryStats(qs)
	}
}

// WithQueryLog attaches a structured query log: every finished query
// (or only those at or above the log's slow threshold) appends one
// JSONL record — statement, kind, latency, stop reason, per-query
// EvalStats deltas, and the trace id of the query's root span when
// tracing is also on.
func WithQueryLog(l *obs.QueryLog) Option {
	return func(k *KB) { k.qlog.Store(l) }
}

// WithActivity attaches an in-flight query registry: every Exec-path
// query registers itself (statement, kind, tenant/client, trace id,
// stats-so-far) for the duration of its evaluation, and canceling its
// registry entry cancels the query's context — kdb's pg_stat_activity.
// The registry may be shared across KBs (the server registers every
// tenant's queries in one).
func WithActivity(reg *obs.ActivityRegistry) Option {
	return func(k *KB) {
		k.activity.Store(reg)
		k.sys.SetActivity(reg)
	}
}

// SetTracer attaches (or, given nil, detaches) the span tracer at
// runtime; it takes effect on the next query.
func (k *KB) SetTracer(t *obs.Tracer) { k.tracer.Store(t) }

// scope observes one statement from its begin to its finish: the sinks
// attached when it began, its clock, its root span and its activity
// entry. Its kind and text are computed once, and only when something
// observes. A scope that found no sink attached observes nothing and
// costs nothing.
type scope struct {
	tr  *obs.Tracer
	qm  *obs.QueryMetrics
	ql  *obs.QueryLog
	qs  *sysrel.QueryStats
	reg *obs.ActivityRegistry

	on     bool
	start  time.Time
	root   *obs.Span
	owned  bool // root was started on tr, not as a child of the caller's span
	client obs.ClientInfo
	act    *obs.Activity
	cancel context.CancelFunc
	kind   string
	text   string
}

// begin opens the scope of one statement when any sink is attached: the
// latency clock, and a root "query" span placed in the context for the
// engines to hang children on. When the context already carries a span
// (the server's "serve" phase), the query span is created as its child
// and the parent owns trace retention; otherwise a fresh root is started
// on the KB's tracer and finished there. With no sink attached, ctx comes
// back untouched.
func (k *KB) begin(ctx context.Context, s *scope) context.Context {
	*s = scope{tr: k.tracer.Load(), qm: k.qmetrics.Load(), ql: k.qlog.Load(),
		qs: k.qstats.Load(), reg: k.activity.Load()}
	if s.tr == nil && s.qm == nil && s.ql == nil && s.qs == nil && s.reg == nil {
		return ctx
	}
	s.on = true
	s.start = time.Now()
	if parent := obs.SpanFromContext(ctx); parent != nil {
		s.root = parent.Child("query")
	} else {
		s.root, s.owned = s.tr.Start("query"), true
	}
	s.client, _ = obs.ClientFromContext(ctx)
	return obs.ContextWithSpan(ctx, s.root)
}

// run names the statement q the scope observes and, when an activity
// registry is attached, registers it as in flight under a cancelable
// child context: canceling the entry cancels the statement.
func (s *scope) run(ctx context.Context, q parser.Query) context.Context {
	if !s.on {
		return ctx
	}
	s.kind = parser.Kind(q)
	if s.ql == nil && s.qs == nil && s.reg == nil {
		return ctx
	}
	s.text = q.String()
	if s.reg == nil {
		return ctx
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.act = s.reg.Begin(s.text, s.kind, s.client.Tenant, s.client.Client, s.root.TraceID(), s.cancel)
	return obs.ContextWithActivity(ctx, s.act)
}

// finish ends the scope. It builds the statement's one record from its
// kind, text, latency and error and from res — the result, or a governed
// stop's partial result carrying the stats and profile up to the stop —
// and projects it onto every attached sink: the activity entry, the
// sys_query_stats aggregate, the root span's attributes, the metrics and
// the query log.
func (s *scope) finish(res *ExecResult, err error) {
	if !s.on {
		return
	}
	d := time.Since(s.start)
	if s.act != nil {
		s.reg.End(s.act)
		s.cancel()
	}
	s.qs.Observe(s.text, d)
	stop := governor.StopReason(err)
	if stop == "error" {
		stop = "" // plain failures are not governed stops
	}
	s.root.SetStr("kind", s.kind)
	if stop != "" {
		s.root.SetStr("stop", stop)
	}
	if err != nil {
		s.root.SetBool("error", true)
	}
	if s.qm != nil || s.ql != nil {
		rec := obs.QueryLogRecord{
			Statement: s.text,
			Kind:      s.kind,
			DurUS:     d.Microseconds(),
			Stop:      stop,
			TraceID:   s.root.TraceID(),
			Tenant:    s.client.Tenant,
			Client:    s.client.Client,
		}
		if err != nil {
			rec.Error = err.Error()
		}
		if res != nil {
			res.record(&rec, s.ql != nil)
		}
		s.qm.Observe(rec)
		s.ql.Observe(rec) // best-effort: a full disk must not fail the query
	}
	if s.owned {
		s.tr.Finish(s.root)
	} else {
		s.root.End()
	}
}

// record fills a statement's log record from its result: the
// evaluation's stats, the nodes its describe searches expanded or its
// explain trees hold, and, when rows is set, the profile's rows.
func (r *ExecResult) record(rec *obs.QueryLogRecord, rows bool) {
	if st := r.Stats; st != nil {
		rec.Engine = st.Engine
		rec.Facts = int64(st.Facts)
		rec.Lookups = st.Lookups
		rec.Probes = st.Probes
		rec.FullScans = st.FullScans
		rec.Candidates = st.Candidates
		rec.IndexBuilds = st.IndexBuilds
		rec.ProvEntries = int64(st.ProvEntries)
		rec.Iterations = sumIterations(st)
	}
	rec.DescribeNodes = int64(r.wildcardNodes)
	if r.Describe != nil {
		rec.DescribeNodes += int64(r.Describe.Nodes)
	}
	if r.Knowledge != nil {
		rec.DescribeNodes += int64(r.Knowledge.Nodes)
	}
	if r.Explanation != nil {
		rec.ExplainNodes = int64(r.Explanation.Nodes)
	}
	if rows && r.Profiled() {
		rec.Profile = r.Stats.Profile
	}
}

// sumIterations totals the fixpoint rounds across an evaluation's SCCs.
func sumIterations(st *eval.EvalStats) int64 {
	n := int64(st.Passes) // top-down naive-iteration passes
	for _, c := range st.Components {
		n += int64(c.Iterations)
	}
	return n
}
