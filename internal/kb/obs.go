package kb

import (
	"context"
	"sync/atomic"
	"time"

	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
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

// queryMark marks a context already inside an observed query, so nested
// Exec paths (ExecStringContext → ExecContext, intensional answering)
// neither open a second root span nor double-count metrics.
type queryMark struct{}

// profileHolder lets the finish callback of beginQuery pick up the
// per-rule profile a profiled retrieve recorded, so slow-log records
// carry their own cost breakdown. beginQuery plants it before the
// statement kind is known; newProfile fills it.
type profileHolder struct {
	p atomic.Pointer[profile.Profile]
}

type profileHolderKey struct{}

func profileHolderFromContext(ctx context.Context) *profileHolder {
	h, _ := ctx.Value(profileHolderKey{}).(*profileHolder)
	return h
}

// activityMark mirrors queryMark for the activity registry: nested Exec
// paths must not register a second in-flight entry.
type activityMark struct{}

// beginActivity registers the query in the attached activity registry
// under a cancelable child context and returns it with a done func;
// done deregisters. Returns ctx, nil when no registry is attached or
// the context is already inside a registered query.
func (k *KB) beginActivity(ctx context.Context, kind, stmt string) (context.Context, func()) {
	reg := k.activity.Load()
	if reg == nil || ctx.Value(activityMark{}) != nil {
		return ctx, nil
	}
	ctx = context.WithValue(ctx, activityMark{}, true)
	cctx, cancel := context.WithCancel(ctx)
	ci, _ := obs.ClientFromContext(ctx)
	a := reg.Begin(stmt, kind, ci.Tenant, ci.Client, obs.SpanFromContext(ctx).TraceID(), cancel)
	cctx = obs.ContextWithActivity(cctx, a)
	return cctx, func() {
		reg.End(a)
		cancel()
	}
}

// beginQuery opens the per-query observability scope: a root "query"
// span placed in the context for the engines to hang children on, and a
// latency clock. When the context already carries a span (the server's
// "serve" phase), the query span is created as its child and the parent
// owns trace retention; otherwise a fresh root is started on the KB's
// tracer and finished there. The returned finish func ends the scope;
// call it exactly once with the statement kind, the statement text, and
// the query's error. When no tracer, metrics, query log, or query
// statistics is configured — or when the context is already inside an
// observed query — ctx comes back untouched and finish is nil, keeping
// the disabled path free of allocations.
func (k *KB) beginQuery(ctx context.Context) (context.Context, func(kind, stmt string, err error)) {
	tr := k.tracer.Load()
	qm := k.qmetrics.Load()
	ql := k.qlog.Load()
	qs := k.qstats.Load()
	if (tr == nil && qm == nil && ql == nil && qs == nil) || ctx.Value(queryMark{}) != nil {
		return ctx, nil
	}
	ctx = context.WithValue(ctx, queryMark{}, true)
	var root *obs.Span
	owned := true
	if parent := obs.SpanFromContext(ctx); parent != nil {
		root = parent.Child("query")
		owned = false
	} else {
		root = tr.Start("query")
	}
	ctx = obs.ContextWithSpan(ctx, root)
	var holder *profileHolder
	if ql != nil {
		holder = &profileHolder{}
		ctx = context.WithValue(ctx, profileHolderKey{}, holder)
	}
	start := time.Now()
	prev := k.lastStats.Load()
	ci, _ := obs.ClientFromContext(ctx)
	return ctx, func(kind, stmt string, err error) {
		d := time.Since(start)
		qs.Observe(stmt, d)
		stop := governor.StopReason(err)
		if stop == "error" {
			stop = "" // plain failures are not governed stops
		}
		root.SetStr("kind", kind)
		if stop != "" {
			root.SetStr("stop", stop)
		}
		if err != nil {
			root.SetBool("error", true)
		}
		qm.ObserveQuery(kind, d, stop, err != nil)
		st := k.lastStats.Load()
		freshStats := st != nil && st != prev
		if freshStats {
			qm.ObserveEval(int64(st.Facts), st.Lookups, st.Probes,
				st.Candidates, st.IndexBuilds, sumIterations(st), int64(st.ProvEntries))
		}
		if ql != nil {
			rec := obs.QueryLogRecord{
				Statement: stmt,
				Kind:      kind,
				DurUS:     d.Microseconds(),
				Stop:      stop,
				TraceID:   root.TraceID(),
				Tenant:    ci.Tenant,
				Client:    ci.Client,
			}
			if err != nil {
				rec.Error = err.Error()
			}
			if freshStats {
				rec.Engine = st.Engine
				rec.Facts = int64(st.Facts)
				rec.Lookups = st.Lookups
				rec.Probes = st.Probes
				rec.FullScans = st.FullScans
				rec.Candidates = st.Candidates
				rec.IndexBuilds = st.IndexBuilds
				rec.ProvEntries = int64(st.ProvEntries)
			}
			if p := holder.p.Load(); p != nil {
				rec.Profile = p.Rows()
			}
			ql.Observe(rec) // best-effort: a full disk must not fail the query
		}
		if owned {
			tr.Finish(root)
		} else {
			root.End()
		}
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

// observeDescribe folds a finished describe search into the metrics.
func (k *KB) observeDescribe(nodes int) {
	k.qmetrics.Load().ObserveDescribe(int64(nodes))
}

// queryKind names the statement form for metrics and span labels.
func queryKind(q parser.Query) string {
	switch s := q.(type) {
	case *parser.Retrieve:
		return "retrieve"
	case *parser.Describe:
		switch {
		case s.Wildcard:
			return "describe-wildcard"
		case s.Subjectless:
			return "possible"
		case len(s.Not) > 0:
			return "describe-not"
		default:
			return "describe"
		}
	case *parser.Compare:
		return "compare"
	case *parser.Explain:
		return "explain"
	case *parser.Profile:
		return "profile"
	default:
		return "unknown"
	}
}
