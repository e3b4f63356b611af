// Package kdb is a knowledge-rich deductive database with a twin query
// interface, reproducing "Querying Database Knowledge" (Motro & Yuan,
// SIGMOD 1990):
//
//   - retrieve p where ψ — data queries: the paper's §3.1 statement,
//     evaluated bottom-up by a semi-naive Datalog engine;
//   - describe p where ψ — knowledge queries: the paper's §3.2
//     statement, answered with rules that are logically derived from the
//     intensional database under the hypothesis ψ, via Algorithm 1
//     (non-recursive subjects) and Algorithm 2 (recursive subjects,
//     through the §5.2 rule transformation with tags and typed
//     substitutions);
//   - the §6 extensions: `where necessary`, negative hypotheses
//     (`where not h` — is h necessary?), the subjectless possibility
//     check, the wildcard subject `describe *`, and `compare` between
//     two concepts.
//
// # Quick start
//
//	k := kdb.New()
//	err := k.LoadString(`
//	    student(ann, math, 3.9).
//	    honor(X) :- student(X, M, G), G > 3.7.
//	`)
//	ctx := context.Background()
//	res, err := k.ExecStringContext(ctx, `retrieve honor(X).`) // → honor(ann)
//	res, err = k.ExecStringContext(ctx, `describe honor(X).`)  // → honor(X) <- student(X, M, G) and G > 3.7
//
// Every statement enters through ExecStringContext (or ExecContext for
// a parsed one): the context cancels it, and ContextWithQueryLimits
// tightens its limits.
//
// Facts can be made durable with Open (snapshot + write-ahead log with
// crash recovery). The surface language is documented in the repository
// README; variables start with an upper-case letter, constants are
// lower-case symbols, numbers, or quoted strings, and `%` starts a
// comment.
package kdb

import (
	"context"
	"io"
	"net/http"
	"time"

	"kdb/internal/analysis"
	"kdb/internal/core"
	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/kb"
	"kdb/internal/obs"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/server"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Core database types.
type (
	// KB is a knowledge-rich database: stored facts, rules, and the twin
	// query machinery. Safe for concurrent use.
	KB = kb.KB
	// ExecResult is the displayable outcome of executing any query form.
	ExecResult = kb.ExecResult
	// DescribeOptions tunes the knowledge-query engine.
	DescribeOptions = core.Options
	// Option configures a KB at construction time (New / Open).
	Option = kb.Option
	// EvalStats is the observability record of one retrieve evaluation:
	// per-SCC fixpoint iterations, facts derived, delta sizes, lookup and
	// probe counts, and wall times. A statement's own record is
	// ExecResult.Stats, or StopError.Stats on a governed stop.
	EvalStats = eval.EvalStats
)

// Query-governor types: per-query resource control for every statement
// (see WithQueryLimits, ContextWithQueryLimits, and the context every
// statement runs under — ExecContext, ExecStringContext).
type (
	// QueryLimits are the per-query resource bounds. The zero value of
	// every field means unlimited.
	QueryLimits = governor.Limits
	// LimitKind identifies which limit a LimitError reports.
	LimitKind = governor.LimitKind
	// LimitError reports a breached resource limit (errors.As-able).
	LimitError = governor.LimitError
	// PanicError is an internal panic contained at an engine boundary
	// and surfaced as an error, with the stack at the panic site.
	PanicError = governor.PanicError
	// StopError wraps the underlying breach of a governed retrieve stop
	// and carries the statistics snapshot at stop time (its EvalStats
	// has StopReason set).
	StopError = eval.StopError
)

// Static-analysis types: the diagnostics engine behind KB.Diagnostics,
// load-time gating, and the `kdb check` command.
type (
	// Report aggregates the diagnostics and the program profile of one
	// analysis run.
	Report = analysis.Report
	// AnalysisError is the error a load returns when error-severity
	// diagnostics reject the program (errors.As-able; carries the
	// structured diagnostics).
	AnalysisError = analysis.Error
)

// Analyze runs the full static-analysis suite over a parsed program and
// returns the report (diagnostics plus program profile).
func Analyze(prog *Program) *Report { return analysis.Run(analysis.FromProgram(prog)) }

// ErrCanceled matches (via errors.Is) every error returned for a
// canceled or expired query context. The concrete error also wraps the
// context cause, so errors.Is(err, context.DeadlineExceeded) works.
var ErrCanceled = governor.ErrCanceled

// ErrClosed matches (via errors.Is) every error a KB returns once it
// has been closed: callers holding a stale handle get a structured
// error instead of a raw I/O failure from the store underneath.
var ErrClosed = kb.ErrClosed

// ErrDurability matches (via errors.Is) every error meaning "the
// in-memory state changed but the change may not have reached stable
// storage": a WAL append or fsync failure, a poisoned log, a failed
// checkpoint. Callers deciding between retrying a request and walling
// off a failing store key on it; KB.DurabilityErr reports the sticky
// form, and a successful Checkpoint clears it.
var ErrDurability = storage.ErrDurability

// ContextWithQueryLimits attaches per-request query limits to a
// context: they govern every evaluation under it, clamped against the
// KB's configured limits (a request may tighten but never loosen the
// ceiling).
func ContextWithQueryLimits(ctx context.Context, l QueryLimits) context.Context {
	return kb.ContextWithLimits(ctx, l)
}

// Limit kinds reported by LimitError.
const (
	LimitFacts         = governor.LimitFacts
	LimitIterations    = governor.LimitIterations
	LimitDescribeNodes = governor.LimitDescribeNodes
	LimitProvenance    = governor.LimitProvenance
)

// Term-language types.
type (
	// Term is a constant or variable.
	Term = term.Term
	// Atom is a predicate applied to terms.
	Atom = term.Atom
	// Formula is a conjunction of atoms.
	Formula = term.Formula
)

// Parsed source types.
type (
	// Query is any parsed query statement.
	Query = parser.Query
	// Program is a parsed knowledge-base source.
	Program = parser.Program
)

// New returns an empty in-memory knowledge base.
func New(opts ...Option) *KB { return kb.New(opts...) }

// Open returns a knowledge base whose facts persist under dir via a
// snapshot file and a CRC-checked write-ahead log with crash recovery.
// Rules are part of the program source; reload them after opening.
func Open(dir string, opts ...Option) (*KB, error) { return kb.Open(dir, opts...) }

// WithQueryLimits sets the per-query resource limits the query governor
// enforces on every retrieve and describe evaluation: maximum wall
// time, derived facts, fixpoint iterations per stratum, describe search
// steps, and provenance entries. Zero fields are unlimited; context
// cancellation (ExecContext and friends) is honored regardless.
func WithQueryLimits(l QueryLimits) Option { return kb.WithQueryLimits(l) }

// Observability types: the tracing and metrics layer (see WithTracer and
// WithMetrics).
type (
	// Tracer records one span tree per traced query and keeps the last
	// one finished. A nil *Tracer disables tracing at zero cost.
	Tracer = obs.Tracer
	// Span is one timed phase of a query (parse, analyze, eval, scc,
	// describe, storage, …) with typed attributes and child spans.
	Span = obs.Span
	// MetricsRegistry is a process-wide registry of counters, gauges,
	// and histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
)

// NewTracer returns a query tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithTracer attaches a span tracer to the KB: every
// ExecContext/ExecStringContext statement records a span tree of its
// phases. Nil keeps tracing disabled with no overhead on the query path.
func WithTracer(t *Tracer) Option { return kb.WithTracer(t) }

// WithMetrics registers the KB's instruments (query latency histograms
// by statement kind, fact/lookup tallies, governor stop reasons, WAL
// and snapshot timings) on the registry.
func WithMetrics(reg *MetricsRegistry) Option { return kb.WithMetrics(reg) }

// WriteTraceJSONL exports a span tree as JSON Lines, one span per line,
// pre-order, with microsecond offsets relative to the root.
func WriteTraceJSONL(w io.Writer, root *Span) error { return obs.WriteJSONL(w, root) }

// WriteTraceTree renders a span tree as an indented console listing.
func WriteTraceTree(w io.Writer, root *Span) error { return obs.WriteTree(w, root) }

// DebugHandler serves /metrics (Prometheus text) and /debug/pprof/*
// over the registry.
func DebugHandler(reg *MetricsRegistry) http.Handler { return obs.DebugHandler(reg) }

// Provenance & explain types: the why-provenance layer behind the
// `explain` statement.
type (
	// Explanation is the reconstructed derivation of every answer to an
	// explain statement (ExecResult.Explanation): one tree per answer
	// fact, plus the legend of rules the trees reference. Its WriteJSON
	// method exports it as indented JSON.
	Explanation = prov.Explanation
	// ExplainNode is one node of a derivation tree.
	ExplainNode = prov.Node
	// QueryLog appends one JSONL record per finished query (optionally
	// only slow ones); see WithQueryLog.
	QueryLog = obs.QueryLog
)

// ExplainEDB marks a derivation-tree leaf that is a stored fact.
const ExplainEDB = prov.NodeEDB

// NewQueryLog returns a structured query log writing JSONL to w. With
// slow > 0 only queries of at least that duration are logged; 0 logs
// every query.
func NewQueryLog(w io.Writer, slow time.Duration) *QueryLog { return obs.NewQueryLog(w, slow) }

// WithQueryLog attaches a structured query log to the KB: one JSONL
// record per finished query — statement, kind, latency, stop reason,
// evaluation deltas, and the root-span trace id when tracing is on.
func WithQueryLog(l *QueryLog) Option { return kb.WithQueryLog(l) }

// Live introspection types: the in-flight query registry behind
// /v1/debug/activity and `kdb top`, and a reopenable log file.
type (
	// ActivityRegistry tracks the queries currently executing; cancel an
	// entry to stop its evaluation through the governor.
	ActivityRegistry = obs.ActivityRegistry
	// ActivityInfo is the wire snapshot of one in-flight query.
	ActivityInfo = obs.ActivityInfo
	// LogFile is an append-only log file that Reopen reopens at its
	// path after an external rotator renamed it; give one to NewQueryLog.
	LogFile = obs.LogFile
)

// NewActivityRegistry returns an empty in-flight query registry, shared
// across as many KBs as should be visible in one listing.
func NewActivityRegistry() *ActivityRegistry { return obs.NewActivityRegistry() }

// WithActivity attaches an in-flight query registry to the KB: every
// Exec-path query registers itself (statement, kind, tenant/client,
// trace id, stats-so-far) for the duration of its evaluation, and
// canceling its entry cancels the query — kdb's pg_stat_activity.
func WithActivity(reg *ActivityRegistry) Option { return kb.WithActivity(reg) }

// OpenLogFile opens (or appends to) the log file at path.
func OpenLogFile(path string) (*LogFile, error) { return obs.OpenLogFile(path) }

// WithQueryStats turns on per-statement execution statistics, queryable
// as the sys_query_stats virtual relation (count, total and max latency
// per distinct statement, bounded with an overflow bucket).
func WithQueryStats() Option { return kb.WithQueryStats() }

// Server types: the HTTP+JSON data plane of `kdb serve` — named
// multi-tenant knowledge bases, prepared parameterized statements, and
// per-tenant quotas over the library's concurrency guarantees.
type (
	// Server hosts many named tenant KBs over HTTP+JSON.
	Server = server.Server
	// ServerConfig assembles a Server (root directory, open-KB bound,
	// idle eviction, quota ceiling, observability hooks).
	ServerConfig = server.Config
)

// ErrServerOverloaded matches (via errors.Is) the error a Server
// returns when its open-KB bound is reached and every open tenant is
// busy; the HTTP surface maps it to 503.
var ErrServerOverloaded = server.ErrOverloaded

// NewServer builds the HTTP data plane over a set of tenant KBs; serve
// its Handler with net/http and Close it on shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ParseProgram parses knowledge-base source text (facts, rules,
// declarations).
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseProgramFile parses knowledge-base source text, anchoring clause
// positions (and hence diagnostics) to the given file name.
func ParseProgramFile(name, src string) (*Program, error) {
	return parser.ParseProgramFile(name, src)
}

// ParseQuery parses one query statement (retrieve / describe / compare).
func ParseQuery(src string) (Query, error) { return parser.ParseQuery(src) }

// ParseQueries parses a sequence of query statements.
func ParseQueries(src string) ([]Query, error) { return parser.ParseQueries(src) }

// ParseAtom parses a single atom, e.g. `can_ta(X, databases)`.
func ParseAtom(src string) (Atom, error) { return parser.ParseAtom(src) }

// ParseFormula parses a conjunction, e.g. `student(X, math, V) and V > 3.7`.
func ParseFormula(src string) (Formula, error) { return parser.ParseFormula(src) }

// Var returns a logical variable.
func Var(name string) Term { return term.Var(name) }

// Sym returns a symbolic constant.
func Sym(name string) Term { return term.Sym(name) }

// Num returns a numeric constant.
func Num(v float64) Term { return term.Num(v) }

// Str returns a string constant.
func Str(s string) Term { return term.Str(s) }

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom { return term.NewAtom(pred, args...) }
