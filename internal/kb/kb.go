// Package kb assembles a complete knowledge-rich database in the sense of
// Section 2 of the paper: an extensional database of stored facts (with
// optional durability), an intensional database of rules, the built-in
// comparison predicates, a catalog of schema annotations, and the query
// machinery — the retrieve evaluator (§3.1) and the describe engine with
// its §6 extensions.
package kb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kdb/internal/analysis"
	"kdb/internal/catalog"
	"kdb/internal/core"
	"kdb/internal/depgraph"
	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// ErrClosed is returned (via errors.Is) by every query and mutation
// entry point after Close: callers holding a stale handle get a
// structured, recognizable error instead of a raw I/O failure from the
// closed store underneath.
var ErrClosed = errors.New("kb: knowledge base is closed")

// KB is one knowledge-rich database. All methods are safe for concurrent
// use; loads are serialized.
type KB struct {
	mu sync.RWMutex

	// cat and store are set at construction and the pointers never
	// change; the structures themselves do their own locking.
	cat   *catalog.Catalog
	store *storage.Store
	// limits are the configured per-query limits (WithQueryLimits), set
	// at construction and never changed.
	limits governor.Limits
	// prog is the current generation of the program.
	//kdb:guarded-by mu
	prog *program
	//kdb:guarded-by mu
	intensional bool
	//kdb:guarded-by mu
	provenance bool
	// profiling makes every retrieve-style evaluation record per-rule
	// cost rows (the .profile REPL toggle / -profile flag).
	//kdb:guarded-by mu
	profiling bool
	// closed is set by Close; every entry point checks it first.
	//kdb:guarded-by mu
	closed bool

	// tracer and qmetrics are the optional observability hooks
	// (WithTracer, WithMetrics). Both are nil-safe throughout: when
	// unset, the query path does no observability work and no
	// allocation.
	tracer   atomic.Pointer[obs.Tracer]
	qmetrics atomic.Pointer[obs.QueryMetrics]

	// qlog is the optional structured query log (WithQueryLog); nil-safe
	// like the other hooks.
	qlog atomic.Pointer[obs.QueryLog]

	// activity is the optional in-flight query registry (WithActivity);
	// nil-safe like the other hooks.
	activity atomic.Pointer[obs.ActivityRegistry]

	// sys serves the sys_* virtual relations. It is created at
	// construction and the pointer never changes afterwards; the
	// provider's sources are attached by the observability options and
	// are internally synchronized.
	sys *sysrel.Provider

	// qstats is the optional per-statement aggregate (WithQueryStats)
	// behind sys_query_stats; nil-safe like the other hooks.
	qstats atomic.Pointer[sysrel.QueryStats]
}

// Option configures a KB at construction time.
type Option func(*KB)

// WithQueryLimits sets the per-query resource limits the query governor
// enforces on every retrieve and describe evaluation: maximum wall time,
// derived facts, fixpoint iterations per stratum, top-down table
// entries, and describe search steps. The zero value of each field
// means unlimited. Context cancellation is honored regardless; a
// request tightens the limits with ContextWithLimits.
func WithQueryLimits(l governor.Limits) Option {
	return func(k *KB) { k.limits = l }
}

// New returns an empty in-memory knowledge base.
func New(opts ...Option) *KB {
	return newKB(storage.NewMemory(), opts)
}

func newKB(st *storage.Store, opts []Option) *KB {
	k := &KB{cat: catalog.New(), store: st, sys: sysrel.NewProvider(),
		prog: newProgram(noRules, nil, nil, core.Options{})}
	for _, o := range opts {
		o(k)
	}
	return k
}

// Open returns a knowledge base whose facts persist under dir (snapshot +
// write-ahead log). Rules are not persisted by the store; reload them
// from source (or use LoadFile) after opening.
func Open(dir string, opts ...Option) (*KB, error) {
	st, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	k := newKB(st, opts)
	// Register recovered predicates in the catalog.
	for _, pred := range st.Preds() {
		if _, err := k.cat.Declare(pred, st.Relation(pred).Arity(), catalog.ClassEDB); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// Close flushes durable state and marks the knowledge base closed:
// every later query or mutation returns ErrClosed. Taking the write
// lock makes Close wait for in-flight queries (which hold the read
// lock) to drain, so the store is never closed under a running
// evaluation. A second Close is a no-op.
func (k *KB) Close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil
	}
	k.closed = true
	return k.store.Close()
}

// Checkpoint folds the write-ahead log into a snapshot (durable KBs).
func (k *KB) Checkpoint() error {
	return k.CheckpointContext(context.Background())
}

// CheckpointContext folds the write-ahead log into a snapshot (durable
// KBs), honoring cancellation up to the point of no return: once the
// snapshot write begins the operation runs to completion, since an
// abandoned half-checkpoint is exactly the crash window the storage
// layer exists to survive. It holds the write lock: a checkpoint racing
// concurrent asserts could otherwise truncate a WAL record whose fact
// had not reached the snapshot, silently losing a durable write. A
// canceled context matches governor.ErrCanceled, as every statement's does.
func (k *KB) CheckpointContext(ctx context.Context) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrClosed
	}
	if err := governor.Check(ctx); err != nil {
		return err
	}
	return k.store.Checkpoint()
}

// DurabilityErr returns the sticky error poisoning the store's
// write-ahead log, or nil while it is healthy (always nil for
// in-memory KBs). A poisoned log rejects every durable write until a
// successful Checkpoint resets it; health probes surface it per
// tenant.
func (k *KB) DurabilityErr() error {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.store.DurabilityErr()
}

// limitsKey carries per-request limits in a context.
type limitsKey struct{}

// ContextWithLimits attaches per-request query limits to the context.
// They govern every evaluation under that context, clamped against the
// KB's configured limits (governor.Clamp): a request may tighten but
// never loosen the KB-level ceiling. The kdb server uses this to apply
// per-tenant quotas to individual requests.
func ContextWithLimits(ctx context.Context, l governor.Limits) context.Context {
	return context.WithValue(ctx, limitsKey{}, l)
}

// effectiveLimits resolves the limits governing one query:
// context-carried per-request limits clamped by the configured limits.
func (k *KB) effectiveLimits(ctx context.Context) governor.Limits {
	if req, ok := ctx.Value(limitsKey{}).(governor.Limits); ok {
		return governor.Clamp(req, k.limits)
	}
	return k.limits
}

// SetDescribeOptions tunes the describe engine (takes effect on the next
// describe).
func (k *KB) SetDescribeOptions(opts core.Options) {
	k.mu.Lock()
	k.prog = k.prog.withOptions(opts)
	k.mu.Unlock()
}

// LoadFile loads a .kdb program file. Clause positions (and hence
// diagnostics) carry the file path.
func (k *KB) LoadFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kb: %w", err)
	}
	prog, err := parser.ParseProgramFile(path, string(src))
	if err != nil {
		return err
	}
	return k.LoadProgram(prog)
}

// LoadString parses and loads a program: facts into the store, rules into
// the IDB, declarations into the catalog. A predicate that heads any
// proper rule (with a body or with variables) is intensional; ground
// bodiless clauses for it are kept as bodiless IDB rules (§2.1 permits
// rules with zero subgoals).
func (k *KB) LoadString(src string) error {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return err
	}
	return k.LoadProgram(prog)
}

// LoadProgram loads an already-parsed program. The static-analysis suite
// runs over the combined program (existing knowledge plus the new
// clauses) before any state changes: error-severity diagnostics reject
// the load, leaving the knowledge base untouched; warnings and infos are
// retained and queryable via Diagnostics.
func (k *KB) LoadProgram(prog *parser.Program) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrClosed
	}
	cur := k.prog

	// Classify head predicates: any non-fact clause makes the predicate
	// intensional. Include predicates that are already intensional.
	intensional := make(map[string]bool)
	for _, r := range cur.graph.Rules() {
		intensional[r.Head.Pred] = true
	}
	for _, c := range prog.Clauses {
		if !c.IsFact() {
			intensional[c.Head.Pred] = true
		}
	}

	// The rules of the new generation: the accumulated rules, the stored
	// facts of every stored predicate gaining rules, re-read as bodiless
	// rules (they stay in the store as well, and the engines read both),
	// and the new clauses. One dependency graph of them serves the
	// analysis and everything the generation builds. Appending past the
	// end of the accumulated rules changes no earlier generation's slice,
	// so a load that fails below leaves them all as they were.
	var promoted []string
	for pred := range intensional {
		if k.cat.IsEDB(pred) {
			promoted = append(promoted, pred)
		}
	}
	sort.Strings(promoted)
	accumulated := cur.graph.Rules()
	rules := accumulated
	for _, pred := range promoted {
		for _, f := range k.store.Facts(pred) {
			rules = append(rules, term.Rule{Head: f})
		}
	}
	promotedFacts := len(rules) - len(accumulated)
	for _, c := range prog.Clauses {
		if !c.IsFact() || intensional[c.Head.Pred] {
			rules = append(rules, c)
		}
	}
	g := depgraph.New(rules)
	// The analysis reads the rules without the promoted facts, which only
	// its graph holds: the duplicate analyzer is quadratic per predicate.
	analysed := rules
	if promotedFacts > 0 {
		analysed = slices.Concat(accumulated, rules[len(accumulated)+promotedFacts:])
	}
	rep := analysis.Run(k.analysisProgramLocked(prog, cur, analysed, g, intensional))
	if rep.HasErrors() {
		return &analysis.Error{Diags: rep.Errors()}
	}

	// Validate arities and classes against the catalog.
	for _, c := range prog.Clauses {
		class := catalog.ClassEDB
		if intensional[c.Head.Pred] {
			class = catalog.ClassIDB
		}
		if term.IsComparisonPred(c.Head.Pred) {
			return fmt.Errorf("kb: %v: a comparison cannot be defined", c.Head)
		}
		if err := k.checkAtomArity(c.Head, class); err != nil {
			return err
		}
		for _, a := range c.Body {
			if err := k.checkAtomArity(a, catalog.ClassEDB); err != nil {
				return err
			}
		}
	}

	for _, ic := range prog.Constraints {
		for _, a := range ic {
			if err := k.checkAtomArity(a, catalog.ClassEDB); err != nil {
				return err
			}
		}
	}

	for _, d := range prog.Declarations {
		switch d.Kind {
		case parser.DeclKey:
			if err := k.cat.AddKey(d.Pred, d.Arity, d.Columns); err != nil {
				return err
			}
		case parser.DeclName:
			k.cat.SetDisplay(d.Pred, d.Name)
		}
	}

	// The facts go to the store as one batch: on a durable KB the load
	// is acknowledged by a single fsync, not one per fact.
	var facts []term.Atom
	for _, c := range prog.Clauses {
		if c.IsFact() && !intensional[c.Head.Pred] {
			facts = append(facts, c.Head)
		}
	}
	if _, err := k.store.InsertAtoms(facts); err != nil {
		return err
	}

	// The load is committed: the promotions and the new generation take
	// effect together, so a load that failed above leaves the program,
	// the classes and the generation as they were. A predicate is promoted
	// when it gains rules while stored, or when this load used it in a
	// body before a clause defined it.
	for pred := range intensional {
		if k.cat.IsEDB(pred) {
			if err := k.cat.Promote(pred); err != nil {
				return err // unreachable: pred is a declared EDB predicate
			}
		}
	}
	k.prog = newProgram(g, append(cur.constraints, prog.Constraints...), rep, cur.opts)
	return nil
}

// analysisProgramLocked assembles the analysis view of the knowledge
// base as it would look after loading prog over the generation cur: the
// given rules with their graph, the accumulated constraints plus the new
// ones, and the EDB schema restricted to predicates that actually hold
// facts or carry a @key declaration (the catalog also auto-declares body
// predicates on first use; counting those as defined would blind the
// undefined-predicate analyzer).
//
//kdb:rlocked mu
func (k *KB) analysisProgramLocked(prog *parser.Program, cur *program, rules []term.Rule, g *depgraph.Graph, intensional map[string]bool) *analysis.Program {
	ap := &analysis.Program{Rules: rules, Graph: g, EDB: make(map[string]int)}
	ap.Constraints = append(ap.Constraints, cur.constraints...)
	ap.ConstraintPos = make([]term.Pos, len(cur.constraints))
	for _, p := range k.cat.Preds(catalog.ClassEDB) {
		if !intensional[p.Name] && (k.store.Count(p.Name) > 0 || len(p.Keys) > 0) {
			ap.EDB[p.Name] = p.Arity
		}
	}
	for _, c := range prog.Clauses {
		if c.IsFact() && !intensional[c.Head.Pred] {
			if _, ok := ap.EDB[c.Head.Pred]; !ok {
				ap.EDB[c.Head.Pred] = c.Head.Arity()
			}
			ap.Facts = append(ap.Facts, c)
		}
	}
	for _, d := range prog.Declarations {
		if d.Kind == parser.DeclKey && !intensional[d.Pred] {
			if _, ok := ap.EDB[d.Pred]; !ok {
				ap.EDB[d.Pred] = d.Arity
			}
		}
	}
	for i, ic := range prog.Constraints {
		ap.Constraints = append(ap.Constraints, ic)
		var pos term.Pos
		if i < len(prog.ConstraintPos) {
			pos = prog.ConstraintPos[i]
		}
		ap.ConstraintPos = append(ap.ConstraintPos, pos)
	}
	return ap
}

// Diagnostics returns the static-analysis report of the most recent
// successful load (covering the whole accumulated program), or nil if
// nothing has been loaded. The report is shared; callers must not
// mutate it.
func (k *KB) Diagnostics() *analysis.Report {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.prog.report
}

// checkAtomArity checks a loaded atom's arity as a statement's atoms are
// checked (checkAtomsLocked), and declares a predicate the catalog does
// not know in class.
//
//kdb:locked mu
func (k *KB) checkAtomArity(a term.Atom, class catalog.Class) error {
	if err := k.checkAtomsLocked(a); err != nil {
		return err
	}
	if _, known := k.cat.Arity(a.Pred); known || sysrel.IsName(a.Pred) {
		return nil
	}
	_, err := k.cat.Declare(a.Pred, len(a.Args), class)
	return err
}

// Assert inserts one ground fact (EDB predicates only).
func (k *KB) Assert(a term.Atom) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrClosed
	}
	if sysrel.IsName(a.Pred) {
		return fmt.Errorf("kb: %s is a virtual system relation; it cannot be asserted", a.Pred)
	}
	if k.cat.IsIDB(a.Pred) {
		return fmt.Errorf("kb: %s is intensional; assert rules by loading a program", a.Pred)
	}
	if err := k.checkAtomArity(a, catalog.ClassEDB); err != nil {
		return err
	}
	_, err := k.store.InsertAtom(a)
	return err
}

// Retract removes one ground fact (EDB predicates only), reporting
// whether it was present. On a durable KB the deletion is WAL-logged,
// so it survives a crash before the next checkpoint.
func (k *KB) Retract(a term.Atom) (bool, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return false, ErrClosed
	}
	if sysrel.IsName(a.Pred) {
		return false, fmt.Errorf("kb: %s is a virtual system relation; it cannot be retracted", a.Pred)
	}
	if k.cat.IsIDB(a.Pred) {
		return false, fmt.Errorf("kb: %s is intensional; retract only removes stored facts", a.Pred)
	}
	if !a.IsGround() {
		return false, fmt.Errorf("kb: retract %v: fact is not ground", a)
	}
	return k.store.DeleteAtom(a)
}

// Rules returns a copy of the IDB.
func (k *KB) Rules() []term.Rule {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return append([]term.Rule(nil), k.prog.graph.Rules()...)
}

// Catalog exposes the schema. The catalog is internally synchronized
// and its accessors return copies, so reading it concurrently with
// loads and asserts is safe. Mutate the schema only through KB methods
// (LoadProgram, Assert) — direct catalog writes bypass the KB's
// analysis and generation bookkeeping.
func (k *KB) Catalog() *catalog.Catalog { return k.cat }

// Store exposes the extensional database. The store is internally
// synchronized, so concurrent reads are safe. Mutate facts only
// through KB methods (Assert, Retract, LoadProgram), which keep the
// catalog, the IDB, and the WAL in step.
func (k *KB) Store() *storage.Store { return k.store }

// SystemRelations exposes the sys_* virtual-relation provider, so
// embedders (the server) can attach additional telemetry sources —
// e.g. the per-tenant rows of sys_tenant.
func (k *KB) SystemRelations() *sysrel.Provider { return k.sys }

// FactCount returns the number of stored facts across all predicates.
func (k *KB) FactCount() int {
	n := 0
	for _, p := range k.store.Preds() {
		n += k.store.Count(p)
	}
	return n
}

// Constraints returns a copy of the loaded integrity constraints.
func (k *KB) Constraints() []term.Formula {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]term.Formula, len(k.prog.constraints))
	for i, ic := range k.prog.constraints {
		out[i] = ic.Clone()
	}
	return out
}

// CheckConstraintsContext evaluates every integrity constraint against
// the current database and returns one message per violating instance
// (capped per constraint). An empty result means the data satisfies all
// constraints. It runs under the context and the effective query limits
// (configured limits, clamped per-request via ContextWithLimits). The
// constraints checked are those loaded when the check begins, each one
// query on one evaluator under one read lock.
func (k *KB) CheckConstraintsContext(ctx context.Context) ([]string, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	e, err := k.engineLocked(ctx)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ic := range k.prog.constraints {
		vars := ic.Vars()
		res, err := e.RetrieveContext(ctx, eval.Query{Subject: term.NewAtom("__ic__", vars...), Where: ic})
		if err != nil {
			return nil, fmt.Errorf("kb: checking constraint :- %v: %w", ic, err)
		}
		for n, tuple := range res.Tuples {
			if n == 4 {
				out = append(out, fmt.Sprintf("constraint :- %v: … and %d more violations", ic, len(res.Tuples)-n))
				break
			}
			sub := term.NewSubst(len(vars))
			for j, v := range vars {
				sub[v] = tuple[j]
			}
			out = append(out, fmt.Sprintf("constraint :- %v violated by %v", ic, sub.ApplyFormula(ic)))
		}
	}
	return out, nil
}

// Validate reports the rule-discipline diagnostics of §2.1: recursive
// rules that are not strongly linear or not typed. These are advisory;
// describe handles them in bounded mode.
func (k *KB) Validate() []string {
	k.mu.RLock()
	g := k.prog.graph
	k.mu.RUnlock()
	var out []string
	for _, v := range g.CheckDiscipline() {
		out = append(out, v.String())
	}
	sort.Strings(out)
	return out
}

// engineLocked returns the one evaluator the KB builds: the semi-naive
// engine over the current state, governed by the context's effective
// limits, plus extra options (a provenance recorder, a profile). The
// caller holds the read lock for as long as it evaluates.
//
//kdb:rlocked mu
func (k *KB) engineLocked(ctx context.Context, extra ...eval.EngineOption) (eval.Engine, error) {
	if k.closed {
		return nil, ErrClosed
	}
	// The view captures the store and the generation's graph; its sources
	// read telemetry directly, never back through k (whose read lock this
	// goroutine already holds).
	p := k.prog
	in := eval.Input{Store: k.store, Rules: p.graph.Rules(), Prepared: p.prepared(), Virtual: k.sys.View(k.store, p.graph)}
	opts := append([]eval.EngineOption{eval.WithLimits(k.effectiveLimits(ctx))}, extra...)
	return eval.NewSemiNaive(in, opts...), nil
}

// evaluateLocked runs a statement's one query — a data query (§3.1), of
// any number of disjuncts — on engineLocked's evaluator, and then after,
// when given, on its answers, all under the read lock the caller holds.
// It returns the answers and the statement's one EvalStats, with
// the error if any; the record is nil when the query failed before
// evaluating. A governed stop — cancellation, deadline expiry, a
// breached limit, or a contained panic — returns an *eval.StopError
// (wrapping governor.ErrCanceled, *governor.LimitError, or
// *governor.PanicError) that carries the same record, its StopReason
// set.
//
//kdb:rlocked mu
func (k *KB) evaluateLocked(ctx context.Context, q eval.Query, after func(*eval.Result), extra ...eval.EngineOption) (*eval.Result, *eval.EvalStats, error) {
	e, err := k.engineLocked(ctx, extra...)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.RetrieveContext(ctx, q)
	if err == nil && after != nil {
		after(res)
	}
	return res, e.(eval.StatsReporter).LastStats(), err
}

// maxExplainNodes bounds the reconstructed derivation tree of one
// explain statement: generous enough for real programs, small enough
// that a pathological witness graph cannot exhaust memory while
// rendering.
const maxExplainNodes = 10000

// explainLocked runs a governed retrieve of subject/where with
// why-provenance recording on — one witness per derived fact, the configured
// MaxProvenanceEntries limit applies — then rebuilds the derivation tree
// of every answer. Trees are cycle-safe for recursive predicates; leaves
// distinguish stored facts (edb) from comparisons (builtin). The trees
// are rebuilt inside the evaluation, under its read lock, so every leaf
// is classified against the store the answers were derived from. The
// result carries the evaluation's EvalStats either way.
//
//kdb:rlocked mu
func (k *KB) explainLocked(ctx context.Context, subject term.Atom, where term.Formula) (*ExecResult, error) {
	out, rec := &ExecResult{}, prov.NewRecorder()
	var err error
	_, out.Stats, err = k.evaluateLocked(ctx, eval.Query{Subject: subject, Where: where}, func(res *eval.Result) {
		start := time.Now()
		out.Explanation = rec.Explain(subject, res.Atoms(subject), k.store.Contains, maxExplainNodes)
		out.explainWall = time.Since(start)
	}, eval.WithProvenance(rec))
	return out, err
}

// SetProvenance switches provenance display on or off (off by default):
// when on, rendered describe answers list the rules each derivation
// applied.
func (k *KB) SetProvenance(on bool) {
	k.mu.Lock()
	k.provenance = on
	k.mu.Unlock()
}

// Provenance reports whether provenance display is on.
func (k *KB) Provenance() bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.provenance
}

// SetProfiling switches always-on profiling on or off (off by default):
// when on, every retrieve statement records per-rule cost rows and its
// ExecResult carries the profile — the .profile REPL toggle and the
// -profile CLI flag. The `profile p(…)` statement profiles one query
// regardless of this setting.
func (k *KB) SetProfiling(on bool) {
	k.mu.Lock()
	k.profiling = on
	k.mu.Unlock()
}

// Profiling reports whether always-on profiling is enabled.
func (k *KB) Profiling() bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.profiling
}

// Intensional reports whether intensional answering is on.
func (k *KB) Intensional() bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.intensional
}

// SetIntensional switches intensional answering for data queries on or
// off (off by default). When on, ExecContext answers a retrieve with
// both the extension AND the knowledge characterizing it — the combined
// data+knowledge responses of the intensional-answer literature the
// paper's introduction surveys (mechanism 2 of its three).
func (k *KB) SetIntensional(on bool) {
	k.mu.Lock()
	k.intensional = on
	k.mu.Unlock()
}

// describerLocked returns the describe engine of the current
// generation. A statement whose context is already done stops here: the
// §6 verdicts — describe not, the subjectless describe, compare — bound
// their unfolding but take no context. When building the engine fails
// (e.g. degenerate recursion makes the §5.2 transformation
// inapplicable), the statement is refused with the generation's analyzer
// diagnostics relevant to the subject predicate pred, when it has one
// and there are any — the caller learns which rules are at fault and
// why — or else with the failure itself.
//
//kdb:rlocked mu
func (k *KB) describerLocked(ctx context.Context, pred string) (*core.Describer, error) {
	if err := governor.Check(ctx); err != nil {
		return nil, err
	}
	p := k.prog
	d, err := p.describe(k.cat)
	if err == nil {
		return d, nil
	}
	if diags := describeDiagnostics(p.report, p.graph, pred); pred != "" && len(diags) > 0 {
		return nil, &analysis.Error{Diags: diags}
	}
	return nil, refuse("recursion", pred, "%v", err)
}

// describeDiagnostics returns the diagnostics of the report about the
// subject predicate, its recursive component, and everything it depends
// on in the graph.
func describeDiagnostics(rep *analysis.Report, g *depgraph.Graph, pred string) []analysis.Diagnostic {
	if rep == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []analysis.Diagnostic
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, rep.ForPred(p)...)
		}
	}
	for _, p := range g.SCC(pred) {
		add(p)
	}
	for q := range g.Reach(pred) {
		add(q)
	}
	return out
}

// attachNotes records on the answers the analyzer warnings explaining a
// degraded describe: when the subject depends on recursion outside the
// §2.1 discipline, the bounded §5.3 mode answered, and the relevant
// recursion diagnostics of the generation that answered say which rules
// are responsible.
func attachNotes(p *program, subject term.Atom, ans *core.Answers) {
	rep := p.report
	if rep == nil {
		return
	}
	relevant := false
	for _, d := range rep.Diagnostics {
		if d.Analyzer == "recursion" && d.Severity == analysis.SevWarning {
			relevant = true
			break
		}
	}
	if !relevant {
		return
	}
	for _, diag := range describeDiagnostics(rep, p.graph, subject.Pred) {
		if diag.Analyzer == "recursion" && diag.Severity == analysis.SevWarning {
			ans.Notes = append(ans.Notes, diag.String())
		}
	}
}

// describeLocked runs a knowledge query (§3.2) — `where necessary`,
// plain or disjunctive — under the effective query limits, getting the
// describer as out's analyze phase: the search checks cancellation cooperatively,
// and MaxDescribeNodes bounds its steps as a hard error (unlike the
// describe engine's own MaxNodes option, which truncates). Artificial
// step-predicate names in the answers are replaced by their @name
// display names, and a degraded describe carries the notes that explain it.
//
//kdb:rlocked mu
func (k *KB) describeLocked(ctx context.Context, out *ExecResult, subject term.Atom, where term.Formula, or []term.Formula, necessary bool) (*core.Answers, error) {
	start := time.Now()
	d, err := k.describerLocked(ctx, subject.Pred)
	out.analyzeWall += time.Since(start)
	if err != nil {
		return nil, err
	}
	var ans *core.Answers
	switch l := k.effectiveLimits(ctx); {
	case necessary:
		ans, err = d.DescribeNecessaryContext(ctx, subject, where, l)
	case len(or) > 0:
		ans, err = d.DescribeOrContext(ctx, subject, append([]term.Formula{where}, or...), l)
	default:
		ans, err = d.DescribeContext(ctx, subject, where, l)
	}
	if err != nil {
		return nil, err
	}
	k.applyDisplayNames(ans)
	attachNotes(k.prog, subject, ans)
	return ans, nil
}

// applyDisplayNames rewrites predicate names in answers to their @name
// display names (meaningful names for artificial predicates, §5.3).
func (k *KB) applyDisplayNames(ans *core.Answers) {
	for i := range ans.Formulas {
		body := ans.Formulas[i].Body
		for j, a := range body {
			if display := k.cat.DisplayName(a.Pred); display != a.Pred {
				body[j] = term.Atom{Pred: display, Args: a.Args}
			}
		}
	}
}

// ExecContext runs any parsed query statement, returning a displayable
// result. It is the single coherent instrument the paper argues for: the
// caller does not need to know whether the question addresses data or
// knowledge. It runs under the context and the configured query limits
// (WithQueryLimits): every form that evaluates, searches or unfolds stops
// on a canceled or expired context with a structured error (errors.Is
// governor.ErrCanceled). Retrieve-style evaluations and the describe
// searches, the wildcard's included, check the context cooperatively, so
// a deadline or a Ctrl-C-driven cancel stops them in flight; describe
// not, the subjectless describe and compare check it before their
// bounded unfolding starts.
func (k *KB) ExecContext(ctx context.Context, q parser.Query) (*ExecResult, error) {
	return k.exec(ctx, q, "")
}

// ExecStringContext parses and runs one query given as text, under the
// context and the configured query limits (see ExecContext).
func (k *KB) ExecStringContext(ctx context.Context, src string) (*ExecResult, error) {
	return k.exec(ctx, nil, src)
}

// exec runs one statement — q, or, when q is nil, the statement src
// parses to — inside one observation scope, registered as in flight for
// its duration. The scope's finish reads the statement's result, a
// governed stop's partial one included; callers get the result, or nil
// and the error.
func (k *KB) exec(ctx context.Context, q parser.Query, src string) (*ExecResult, error) {
	var sc scope
	k.begin(ctx, &sc)
	if q == nil {
		start := time.Now()
		var err error
		q, err = parser.ParseQuery(src)
		sc.parse, sc.parsed = time.Since(start), true
		if err != nil {
			sc.kind, sc.text = "parse", strings.TrimSpace(src)
			sc.finish(nil, err)
			return nil, err
		}
	}
	ctx = sc.run(ctx, q)
	res, err := k.execContext(ctx, q)
	sc.finish(res, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execContext runs one parsed statement under one hold of the read lock:
// it checks the statement against the generation it runs on (check), and
// runs it on that generation. An evaluating statement that fails returns
// its partial result with the error: the EvalStats and profile up to a
// governed stop, for the scope to record.
func (k *KB) execContext(ctx context.Context, q parser.Query) (*ExecResult, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.closed {
		return nil, ErrClosed
	}
	if err := k.checkLocked(q); err != nil {
		return nil, err
	}
	switch s := q.(type) {
	case *parser.Retrieve:
		out := &ExecResult{Query: q, subject: s.Subject}
		var opts []eval.EngineOption
		if k.profiling {
			opts = append(opts, eval.WithProfile())
		}
		var err error
		out.Retrieve, out.Stats, err = k.evaluateLocked(ctx, eval.Query{Subject: s.Subject, Where: s.Where, Or: s.Or}, nil, opts...)
		if err != nil {
			return out, err
		}
		// Intensional answering: attach the knowledge characterizing the
		// extension, when the statement also reads as a describe.
		if k.intensional && k.checkDescribeLocked(&parser.Describe{Subject: s.Subject, Where: s.Where, Or: s.Or}, true) == nil {
			if ans, derr := k.describeLocked(ctx, out, s.Subject, s.Where, s.Or, false); derr == nil {
				out.Knowledge = ans
			}
		}
		return out, nil
	case *parser.Describe:
		return k.execDescribeLocked(ctx, s)
	case *parser.Explain:
		out, err := k.explainLocked(ctx, s.Subject, s.Where)
		out.Query = q
		return out, err
	case *parser.Profile:
		out := &ExecResult{Query: q, subject: s.Subject}
		var err error
		out.Retrieve, out.Stats, err = k.evaluateLocked(ctx, eval.Query{Subject: s.Subject, Where: s.Where}, nil, eval.WithProfile())
		return out, err
	default: // *parser.Compare: the parser makes no other statement
		cq := q.(*parser.Compare)
		d, err := k.describerLocked(ctx, "")
		if err != nil {
			return nil, err
		}
		c, err := d.Compare(cq.Left.Subject, cq.Left.Where, cq.Right.Subject, cq.Right.Where)
		if errors.Is(err, core.ErrNoDefinition) {
			return nil, refuse("subject", "", "a compared concept has no consistent definition under its hypothesis")
		}
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: q, Comparison: c}, nil
	}
}

// execDescribeLocked runs a describe statement in any of its forms.
//
//kdb:rlocked mu
func (k *KB) execDescribeLocked(ctx context.Context, s *parser.Describe) (*ExecResult, error) {
	switch {
	case s.Wildcard:
		out := &ExecResult{Query: s, wildcard: true}
		start := time.Now()
		d, err := k.describerLocked(ctx, "")
		out.analyzeWall = time.Since(start)
		if err != nil {
			return out, err
		}
		out.Wildcard, out.wildcardSearch, err = d.DescribeWildcardContext(ctx, s.Where, k.effectiveLimits(ctx))
		return out, err
	case s.Subjectless:
		d, err := k.describerLocked(ctx, "")
		if err != nil {
			return nil, err
		}
		p, err := d.Possible(s.Where)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: s, Possibility: p}, nil
	case sysrel.IsName(s.Subject.Pred):
		// A describe of a virtual relation answers from its fixed
		// definition: the schema is code, not loaded knowledge, so the
		// describe engine has nothing to unfold.
		d := sysrel.Lookup(s.Subject.Pred)
		return &ExecResult{Query: s, System: fmt.Sprintf("%s — virtual relation: %s", d.Signature(), d.Doc)}, nil
	case len(s.Not) > 0:
		d, err := k.describerLocked(ctx, s.Subject.Pred)
		if err != nil {
			return nil, err
		}
		n, err := d.DescribeNot(s.Subject, s.Not, s.Where)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: s, Necessity: n}, nil
	}
	out := &ExecResult{Query: s, provenance: k.provenance}
	var err error
	out.Describe, err = k.describeLocked(ctx, out, s.Subject, s.Where, s.Or, s.Necessary)
	return out, err
}

// ExecResult is the displayable outcome of ExecContext: exactly one of the
// result fields is set, according to the query form.
type ExecResult struct {
	Query    parser.Query
	Retrieve *eval.Result
	// Stats is the statement's one evaluation record — every query it
	// ran folded into one — for retrieve, profile and explain; nil for
	// the forms that evaluate nothing. A governed stop's record is on its
	// *eval.StopError. The record of a `profile p(…)` statement, or of
	// any retrieve when SetProfiling is on, carries per-rule cost rows
	// (Stats.Profile), rendered after the answers as an annotated plan.
	Stats *eval.EvalStats
	// Knowledge carries the intensional characterization of a retrieve
	// answer when intensional answering is on (SetIntensional).
	Knowledge   *core.Answers
	Describe    *core.Answers
	Necessity   *core.Necessity
	Possibility *core.Possibility
	Wildcard    []core.WildcardEntry
	Comparison  *core.ConceptComparison
	Explanation *prov.Explanation
	// System carries the fixed-definition answer of a `describe sys_…`
	// statement over a virtual relation.
	System string

	subject        term.Atom
	wildcard       bool
	wildcardSearch core.SearchStats // a wildcard describe's searches, every subject's
	// kb's own phases: getting the describer, rebuilding explain's trees
	analyzeWall, explainWall time.Duration
	provenance               bool
	text                     string   // a retrieve's answer lines joined by '\n', once rendered
	lines                    []string // RetrieveLines: substrings of text, once asked for
}

// searched returns the record of the statement's describe searches, or
// nil when it ran none, and the number of formulas they answered with.
func (r *ExecResult) searched() (*core.SearchStats, int) {
	if a := cmp.Or(r.Describe, r.Knowledge); a != nil {
		return &a.SearchStats, len(a.Formulas)
	}
	if !r.wildcard || r.wildcardSearch.Algorithm == 0 { // a wildcard that never searched
		return nil, 0
	}
	n := 0
	for _, e := range r.Wildcard {
		n += len(e.Answers.Formulas)
	}
	return &r.wildcardSearch, n
}

// RetrieveLines renders the answers of a retrieve as instantiated
// subject atoms, in byte order: the lines String lists. The text is
// rendered on the first call of either method and shared by every later
// one; the lines are substrings of it, sliced on the first call, so
// holding any line holds all of them. Nil when there is no answer.
func (r *ExecResult) RetrieveLines() []string {
	if text := r.answers(); r.lines == nil && text != "" {
		r.lines = strings.Split(text, "\n")
	}
	return r.lines
}

// answers is a retrieve's answer text, rendered on the first call, or ""
// when there is no answer.
func (r *ExecResult) answers() string {
	if r.text == "" && r.Retrieve != nil && len(r.Retrieve.Tuples) > 0 {
		r.render()
	}
	return r.text
}

// Profiled reports whether the statement's record carries per-rule cost
// rows: a profile statement's, or a retrieve's with SetProfiling on.
func (r *ExecResult) Profiled() bool { return r.Stats != nil && r.Stats.Profile != nil }

// String renders the result for a terminal. A retrieve lists its
// answers (or "no answers"), then the knowledge characterizing them,
// then the profile.
func (r *ExecResult) String() string {
	switch {
	case r.System != "":
		return r.System
	case r.Retrieve != nil:
		text := r.answers()
		if text == "" {
			text = "no answers"
		}
		knowledge := r.Knowledge != nil && !r.Knowledge.Empty()
		profiled := r.Profiled()
		if !knowledge && !profiled {
			return text
		}
		var b strings.Builder
		b.WriteString(text)
		if knowledge {
			b.WriteString("\nbecause:")
			for _, f := range r.Knowledge.Formulas {
				b.WriteString("\n  ")
				b.WriteString(f.String())
			}
		}
		if profiled {
			b.WriteString("\n\n")
			b.WriteString(strings.TrimRight(profile.Text(r.Stats.Engine, r.Stats.Wall, r.Stats.Profile), "\n"))
		}
		return b.String()
	case r.Describe != nil:
		if !r.provenance {
			return r.Describe.String()
		}
		var b strings.Builder
		if r.Describe.Contradiction || len(r.Describe.Formulas) == 0 {
			return r.Describe.String()
		}
		for i, a := range r.Describe.Formulas {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(a.StringWithProvenance())
		}
		return b.String()
	case r.Necessity != nil:
		return r.Necessity.String()
	case r.Possibility != nil:
		return r.Possibility.String()
	case r.wildcard:
		var b strings.Builder
		for i, e := range r.Wildcard {
			if i > 0 {
				b.WriteByte('\n')
			}
			if e.Answers.Contradiction {
				b.WriteString(e.Subject.String())
				b.WriteString(": ")
			}
			b.WriteString(e.Answers.String())
		}
		if b.Len() == 0 {
			return "no subjects are derivable from this qualifier"
		}
		return b.String()
	case r.Explanation != nil:
		return strings.TrimRight(r.Explanation.String(), "\n")
	case r.Comparison != nil:
		return r.Comparison.String()
	default:
		return "no result"
	}
}
