package kb

import (
	"context"
	"strings"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
)

// WithTracer attaches a span tracer: every ExecContext/ExecStringContext
// statement's record is projected, when it finishes, onto a span tree
// (parse, analyze, eval, storage, describe, explain phases) that the
// tracer retains and hands to its OnFinish callback. A nil tracer keeps
// the query path allocation-free.
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
		qs := sysrel.NewQueryStats()
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
	parse  time.Duration // parsing the statement, when it came as text (parsed)
	parsed bool
}

// begin opens the scope of one statement when any sink is attached: the
// latency clock, and a root "query" span that finish projects the
// statement's phases under. When the context carries a span (the
// server's "serve" phase), the query span is created as its child and
// the parent owns trace retention; otherwise a fresh root is started on
// the KB's tracer and finished there.
func (k *KB) begin(ctx context.Context, s *scope) {
	*s = scope{tr: k.tracer.Load(), qm: k.qmetrics.Load(), ql: k.qlog.Load(),
		qs: k.qstats.Load(), reg: k.activity.Load()}
	if s.tr == nil && s.qm == nil && s.ql == nil && s.qs == nil && s.reg == nil {
		return
	}
	s.on = true
	s.start = time.Now()
	if parent := obs.SpanFromContext(ctx); parent != nil {
		s.root = parent.Child("query")
	} else {
		s.root, s.owned = s.tr.Start("query"), true
	}
	s.client, _ = obs.ClientFromContext(ctx)
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
// sys_query_stats aggregate, the span tree, the metrics and the query
// log.
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
	if s.root != nil {
		s.project(res)
	}
	if s.owned {
		s.tr.Finish(s.root)
	} else {
		s.root.End()
	}
}

// project lays the statement's phases out under the root span from its
// record alone, end to end in the order they ran: each is as long as the
// wall its record holds and carries its record's counts. A describe has
// one eval and one describe phase however many searches it ran.
func (s *scope) project(res *ExecResult) {
	if s.parsed {
		s.root.Then("parse", s.parse)
	}
	if res == nil {
		return
	}
	if st := res.Stats; st != nil {
		s.root.Then("analyze", st.Plan)
		ev := s.root.Then("eval", st.Wall)
		ev.SetStr("engine", st.Engine)
		ev.SetInt("components", int64(len(st.Components)))
		ev.SetInt("facts", int64(st.Facts))
		ev.SetInt("lookups", st.Lookups)
		if st.StopReason != "" {
			ev.SetStr("stop", st.StopReason)
		}
		for _, c := range st.Components {
			sp := ev.Then("scc", c.Wall)
			sp.SetStr("preds", strings.Join(c.Preds, " "))
			sp.SetInt("iterations", int64(c.Iterations))
			sp.SetInt("facts", int64(c.Facts))
			sp.SetInt("lookups", c.Lookups)
			sp.SetBool("recursive", c.Recursive)
		}
		sp := s.root.Then("storage", 0)
		sp.SetInt("probes", st.Probes)
		sp.SetInt("candidates", st.Candidates)
		sp.SetInt("index_builds", st.IndexBuilds)
	}
	if st, formulas := res.searched(); st != nil {
		s.root.Then("analyze", res.analyzeWall)
		ev := s.root.Then("eval", st.SearchWall)
		ev.SetInt("algorithm", int64(st.Algorithm))
		ev.SetInt("nodes", int64(st.Nodes))
		ev.SetBool("truncated", st.Truncated)
		s.root.Then("describe", st.PostWall).SetInt("formulas", int64(formulas))
	}
	if e := res.Explanation; e != nil {
		sp := s.root.Then("explain", res.explainWall)
		sp.SetInt("trees", int64(len(e.Trees)))
		sp.SetInt("nodes", int64(e.Nodes))
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
		for _, c := range st.Components {
			rec.Iterations += int64(c.Iterations)
		}
	}
	if st, _ := r.searched(); st != nil {
		rec.DescribeNodes = int64(st.Nodes)
	}
	if r.Explanation != nil {
		rec.ExplainNodes = int64(r.Explanation.Nodes)
	}
	if rows && r.Profiled() {
		rec.Profile = r.Stats.Profile
	}
}
