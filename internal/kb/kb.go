// Package kb assembles a complete knowledge-rich database in the sense of
// Section 2 of the paper: an extensional database of stored facts (with
// optional durability), an intensional database of rules, the built-in
// comparison predicates, a catalog of schema annotations, and the query
// machinery — retrieve engines (§3.1) and the describe engine with its §6
// extensions.
package kb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// EngineKind selects the retrieve evaluation strategy.
type EngineKind string

// Retrieve engines.
const (
	EngineNaive     EngineKind = "naive"
	EngineSemiNaive EngineKind = "seminaive"
	EngineTopDown   EngineKind = "topdown"
	EngineMagic     EngineKind = "magic"
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
	//kdb:guarded-by mu
	rules []term.Rule
	//kdb:guarded-by mu
	constraints []term.Formula
	//kdb:guarded-by mu
	engine EngineKind
	//kdb:guarded-by mu
	parallelism int
	//kdb:guarded-by mu
	limits governor.Limits
	//kdb:guarded-by mu
	opts core.Options
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

	// gen counts schema mutations (program loads; asserts that declare a
	// new predicate). Prepared-statement caches compare it to detect
	// staleness; fact-only mutations do not invalidate a prepared
	// program's analysis and leave it unchanged.
	gen atomic.Uint64

	// lastStats holds the evaluation statistics of the most recent
	// retrieve (or constraint check), for observability.
	lastStats atomic.Pointer[eval.EvalStats]

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
	// construction (nil after WithoutSystemRelations) and the pointer
	// never changes afterwards; the provider's sources are attached by
	// the observability options and are internally synchronized.
	sys *sysrel.Provider

	// qstats is the optional per-statement aggregate (WithQueryStats)
	// behind sys_query_stats; nil-safe like the other hooks.
	qstats atomic.Pointer[sysrel.QueryStats]

	// describer is rebuilt lazily after each load.
	//kdb:guarded-by mu
	describer *core.Describer

	// report is the static-analysis report of the most recent successful
	// load, covering the whole accumulated program.
	//kdb:guarded-by mu
	report *analysis.Report
}

// Option configures a KB at construction time.
type Option func(*KB)

// WithParallelism sets the worker count for bottom-up evaluation: how
// many independent strata (SCCs of the rule dependency graph) may be
// evaluated concurrently. n <= 0 selects GOMAXPROCS. The default is 1
// (sequential evaluation).
func WithParallelism(n int) Option {
	return func(k *KB) { k.setParallelism(n) }
}

// WithQueryLimits sets the per-query resource limits the query governor
// enforces on every retrieve and describe evaluation: maximum wall time,
// derived facts, fixpoint iterations per stratum, top-down table
// entries, and describe search steps. The zero value of each field
// means unlimited. Context cancellation is honored regardless.
func WithQueryLimits(l governor.Limits) Option {
	// Construction-time: the KB is not yet published to any other
	// goroutine when options run.
	return func(k *KB) { k.limits = l } //kdb:nolint lockcheck
}

// New returns an empty in-memory knowledge base.
func New(opts ...Option) *KB {
	k := &KB{cat: catalog.New(), store: storage.NewMemory(), engine: EngineSemiNaive, parallelism: 1,
		sys: sysrel.NewProvider()}
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
	k := &KB{cat: catalog.New(), store: st, engine: EngineSemiNaive, parallelism: 1,
		sys: sysrel.NewProvider()}
	for _, o := range opts {
		o(k)
	}
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
//
//kdb:entrypoint
func (k *KB) Checkpoint() error {
	return k.CheckpointContext(context.Background())
}

// CheckpointContext folds the write-ahead log into a snapshot (durable
// KBs), honoring cancellation up to the point of no return: once the
// snapshot write begins the operation runs to completion, since an
// abandoned half-checkpoint is exactly the crash window the storage
// layer exists to survive. It holds the write lock: a checkpoint racing
// concurrent asserts could otherwise truncate a WAL record whose fact
// had not reached the snapshot, silently losing a durable write.
func (k *KB) CheckpointContext(ctx context.Context) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
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

// Generation returns a counter that increases on every schema mutation
// (LoadProgram; an Assert that declares a new predicate). Prepared
// statements validated at generation g remain valid while Generation
// reports g.
func (k *KB) Generation() uint64 { return k.gen.Load() }

// SetEngine selects the retrieve engine (default: semi-naive).
func (k *KB) SetEngine(e EngineKind) error {
	switch e {
	case EngineNaive, EngineSemiNaive, EngineTopDown, EngineMagic:
		k.mu.Lock()
		k.engine = e
		k.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("kb: unknown engine %q", e)
	}
}

// SetParallelism sets the bottom-up worker count (see WithParallelism);
// n <= 0 selects GOMAXPROCS.
func (k *KB) SetParallelism(n int) {
	k.mu.Lock()
	k.setParallelism(n)
	k.mu.Unlock()
}

// setParallelism is called with k.mu held (SetParallelism) or at
// construction time, before the KB is published.
//
//kdb:locked mu
func (k *KB) setParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	k.parallelism = n
}

// Parallelism returns the configured bottom-up worker count.
func (k *KB) Parallelism() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.parallelism
}

// SetQueryLimits replaces the per-query resource limits (see
// WithQueryLimits); it takes effect on the next query.
func (k *KB) SetQueryLimits(l governor.Limits) {
	k.mu.Lock()
	k.limits = l
	k.mu.Unlock()
}

// QueryLimits returns the configured per-query resource limits.
func (k *KB) QueryLimits() governor.Limits {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.limits
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

// LimitsFromContext returns the limits attached by ContextWithLimits.
func LimitsFromContext(ctx context.Context) (governor.Limits, bool) {
	l, ok := ctx.Value(limitsKey{}).(governor.Limits)
	return l, ok
}

// effectiveLimitsLocked resolves the limits governing one query:
// context-carried per-request limits clamped by the configured limits.
// Callers hold k.mu in either mode.
//
//kdb:rlocked mu
func (k *KB) effectiveLimitsLocked(ctx context.Context) governor.Limits {
	if req, ok := LimitsFromContext(ctx); ok {
		return governor.Clamp(req, k.limits)
	}
	return k.limits
}

func (k *KB) effectiveLimits(ctx context.Context) governor.Limits {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.effectiveLimitsLocked(ctx)
}

// LastStats returns the evaluation statistics of the most recent
// retrieve or constraint check, or nil if none has run yet. The pointer
// changes on every evaluation, so callers can detect fresh stats by
// comparing pointers.
func (k *KB) LastStats() *eval.EvalStats {
	return k.lastStats.Load()
}

// recordStats captures the engine's statistics after an evaluation.
func (k *KB) recordStats(e eval.Engine) {
	if sr, ok := e.(eval.StatsReporter); ok {
		if st := sr.LastStats(); st != nil {
			k.lastStats.Store(st)
		}
	}
}

// SetDescribeOptions tunes the describe engine (takes effect on the next
// describe).
func (k *KB) SetDescribeOptions(opts core.Options) {
	k.mu.Lock()
	k.opts = opts
	k.describer = nil
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

	rep := analysis.Run(k.analysisProgramLocked(prog))
	if rep.HasErrors() {
		return &analysis.Error{Diags: rep.Errors()}
	}

	// Classify head predicates: any non-fact clause makes the predicate
	// intensional. Include predicates that are already intensional.
	intensional := make(map[string]bool)
	for _, r := range k.rules {
		intensional[r.Head.Pred] = true
	}
	for _, c := range prog.Clauses {
		if !c.IsFact() {
			intensional[c.Head.Pred] = true
		}
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

	// A stored predicate gaining rules is promoted; its stored facts are
	// re-read as bodiless rules.
	for pred := range intensional {
		if p := k.cat.Lookup(pred); p != nil && p.Class == catalog.ClassEDB {
			if err := k.cat.Promote(pred); err != nil {
				return err
			}
			for _, f := range k.store.Facts(pred) {
				k.rules = append(k.rules, term.Rule{Head: f})
			}
			// Facts stay in the store as well; the engines read both.
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
	for _, c := range prog.Clauses {
		if !c.IsFact() || intensional[c.Head.Pred] {
			k.rules = append(k.rules, c)
		}
	}
	for _, ic := range prog.Constraints {
		for _, a := range ic {
			if err := k.checkAtomArity(a, catalog.ClassEDB); err != nil {
				return err
			}
		}
		k.constraints = append(k.constraints, ic)
	}
	k.describer = nil // rebuild lazily
	k.report = rep
	k.gen.Add(1)
	return nil
}

// analysisProgramLocked assembles the analysis view of the knowledge
// base as it would look after loading prog: the accumulated rules and
// constraints plus the new clauses, and the EDB schema restricted to
// predicates that actually hold facts or carry a @key declaration (the
// catalog also auto-declares body predicates on first use; counting
// those as defined would blind the undefined-predicate analyzer).
//
//kdb:rlocked mu
func (k *KB) analysisProgramLocked(prog *parser.Program) *analysis.Program {
	intensional := make(map[string]bool)
	for _, r := range k.rules {
		intensional[r.Head.Pred] = true
	}
	for _, c := range prog.Clauses {
		if !c.IsFact() {
			intensional[c.Head.Pred] = true
		}
	}
	ap := &analysis.Program{EDB: make(map[string]int)}
	ap.Rules = append(ap.Rules, k.rules...)
	ap.Constraints = append(ap.Constraints, k.constraints...)
	ap.ConstraintPos = make([]term.Pos, len(k.constraints))
	for _, p := range k.cat.Preds(catalog.ClassEDB) {
		if intensional[p.Name] {
			continue
		}
		if k.store.Count(p.Name) > 0 || len(p.Keys) > 0 {
			ap.EDB[p.Name] = p.Arity
		}
	}
	for _, c := range prog.Clauses {
		if c.IsFact() && !intensional[c.Head.Pred] {
			if _, ok := ap.EDB[c.Head.Pred]; !ok {
				ap.EDB[c.Head.Pred] = c.Head.Arity()
			}
			ap.Facts = append(ap.Facts, c)
		} else {
			ap.Rules = append(ap.Rules, c)
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
	return k.report
}

func (k *KB) checkAtomArity(a term.Atom, class catalog.Class) error {
	if term.IsComparisonPred(a.Pred) {
		if len(a.Args) != 2 {
			return fmt.Errorf("kb: comparison %v must be binary", a)
		}
		return nil
	}
	// The sys_ namespace is reserved: virtual relations validate against
	// their fixed schema and never enter the catalog (the reserved
	// analyzer already rejects definitions, so only body uses get here).
	if sysrel.IsName(a.Pred) {
		d := sysrel.Lookup(a.Pred)
		if d == nil {
			return fmt.Errorf("kb: unknown system relation %s (the sys_ namespace is reserved)", a.Pred)
		}
		if len(a.Args) != d.Arity {
			return fmt.Errorf("kb: %s used with arity %d but the system relation is %s", a.Pred, len(a.Args), d.Signature())
		}
		return nil
	}
	if p := k.cat.Lookup(a.Pred); p != nil {
		if p.Arity != len(a.Args) {
			return fmt.Errorf("kb: %s used with arity %d but known with arity %d", a.Pred, len(a.Args), p.Arity)
		}
		if class == catalog.ClassIDB && p.Class == catalog.ClassEDB {
			return nil // promotion handled by the caller
		}
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
	declares := k.cat.Lookup(a.Pred) == nil
	if err := k.checkAtomArity(a, catalog.ClassEDB); err != nil {
		return err
	}
	if _, err := k.store.InsertAtom(a); err != nil {
		return err
	}
	if declares {
		k.gen.Add(1)
	}
	return nil
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
	return append([]term.Rule(nil), k.rules...)
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
// e.g. the per-tenant rows of sys_tenant. Nil when the provider was
// disabled with WithoutSystemRelations; the sysrel setters are
// nil-receiver safe, so callers need not check.
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
	out := make([]term.Formula, len(k.constraints))
	for i, ic := range k.constraints {
		out[i] = ic.Clone()
	}
	return out
}

// CheckConstraints evaluates every integrity constraint against the
// current database and returns one message per violating instance
// (capped per constraint). An empty result means the data satisfies all
// constraints.
//
//kdb:entrypoint
func (k *KB) CheckConstraints() ([]string, error) {
	return k.CheckConstraintsContext(context.Background())
}

// CheckConstraintsContext is CheckConstraints under the context and the
// effective query limits (configured limits, clamped per-request via
// ContextWithLimits).
func (k *KB) CheckConstraintsContext(ctx context.Context) ([]string, error) {
	k.mu.RLock()
	if k.closed {
		k.mu.RUnlock()
		return nil, ErrClosed
	}
	engine := k.newEngine(ctx)
	constraints := make([]term.Formula, len(k.constraints))
	copy(constraints, k.constraints)
	k.mu.RUnlock()
	var out []string
	for _, ic := range constraints {
		vars := ic.Vars()
		probe := term.NewAtom("__ic__", vars...)
		res, err := engine.RetrieveContext(ctx, eval.Query{Subject: probe, Where: ic})
		if err != nil {
			return nil, fmt.Errorf("kb: checking constraint :- %v: %w", ic, err)
		}
		for i, tuple := range res.Tuples {
			if i == 4 {
				out = append(out, fmt.Sprintf("constraint :- %v: … and %d more violations", ic, len(res.Tuples)-i))
				break
			}
			sub := term.NewSubst(len(vars))
			for j, v := range vars {
				sub[v] = tuple[j]
			}
			out = append(out, fmt.Sprintf("constraint :- %v violated by %v", ic, sub.ApplyFormula(ic)))
		}
	}
	k.recordStats(engine)
	return out, nil
}

// Validate reports the rule-discipline diagnostics of §2.1: recursive
// rules that are not strongly linear or not typed. These are advisory;
// describe handles them in bounded mode.
func (k *KB) Validate() []string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	g := depgraph.New(k.rules)
	var out []string
	for _, v := range g.CheckDiscipline() {
		out = append(out, v.String())
	}
	sort.Strings(out)
	return out
}

// newEngine builds the configured retrieve engine over the current
// state, governed by the context's effective limits; extra options
// (e.g. a provenance recorder) are appended. Callers hold k.mu.
//
//kdb:rlocked mu
func (k *KB) newEngine(ctx context.Context, extra ...eval.EngineOption) eval.Engine {
	in := eval.Input{Store: k.store, Rules: k.rules}
	if k.sys != nil {
		// The view captures the store and the current rule slice; its
		// sources read telemetry directly, never back through k (whose
		// read lock this goroutine already holds).
		in.Virtual = k.sys.View(k.store, k.rules)
	}
	opts := append([]eval.EngineOption{
		eval.WithWorkers(k.parallelism),
		eval.WithLimits(k.effectiveLimitsLocked(ctx)),
	}, extra...)
	switch k.engine {
	case EngineNaive:
		return eval.NewNaive(in, opts...)
	case EngineTopDown:
		return eval.NewTopDown(in, opts...)
	case EngineMagic:
		return eval.NewMagic(in, opts...)
	default:
		return eval.NewSemiNaive(in, opts...)
	}
}

// Retrieve evaluates a data query (§3.1). The configured query limits
// (WithQueryLimits) apply; use RetrieveContext to also support
// cancellation.
//
//kdb:entrypoint
func (k *KB) Retrieve(subject term.Atom, where term.Formula) (*eval.Result, error) {
	return k.RetrieveContext(context.Background(), subject, where)
}

// RetrieveContext evaluates a data query under the context and the
// configured query limits. A governed stop — cancellation, deadline
// expiry, a breached limit, or a contained panic — returns a structured
// error (*eval.StopError wrapping governor.ErrCanceled,
// *governor.LimitError, or *governor.PanicError); the statistics
// snapshot at stop time is still recorded (LastStats) with its
// StopReason set.
func (k *KB) RetrieveContext(ctx context.Context, subject term.Atom, where term.Formula) (*eval.Result, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.closed {
		return nil, ErrClosed
	}
	engine := k.newEngine(ctx)
	res, err := engine.RetrieveContext(ctx, eval.Query{Subject: subject, Where: where})
	k.recordStats(engine)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RetrieveOr evaluates a data query with a disjunctive qualifier
// (§6's second research direction): the answer is the union of the
// per-disjunct answers.
//
//kdb:entrypoint
func (k *KB) RetrieveOr(subject term.Atom, disjuncts []term.Formula) (*eval.Result, error) {
	return k.RetrieveOrContext(context.Background(), subject, disjuncts)
}

// RetrieveOrContext is RetrieveOr under the context and the configured
// query limits (per-disjunct: each disjunct is one governed evaluation).
func (k *KB) RetrieveOrContext(ctx context.Context, subject term.Atom, disjuncts []term.Formula) (*eval.Result, error) {
	if len(disjuncts) == 0 {
		return k.RetrieveContext(ctx, subject, nil)
	}
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.closed {
		return nil, ErrClosed
	}
	engine := k.newEngine(ctx)
	var merged *eval.Result
	seen := make(map[string]bool)
	for _, d := range disjuncts {
		res, err := engine.RetrieveContext(ctx, eval.Query{Subject: subject, Where: d})
		if err != nil {
			k.recordStats(engine)
			return nil, err
		}
		if merged == nil {
			merged = &eval.Result{Vars: res.Vars}
		}
		for _, t := range res.Tuples {
			key := storage.Tuple(t).Key()
			if !seen[key] {
				seen[key] = true
				merged.Tuples = append(merged.Tuples, t)
			}
		}
	}
	k.recordStats(engine)
	return merged, nil
}

// Profile evaluates a data query like Retrieve while recording per-rule
// cost rows: wall time, rounds, tuples produced, and the storage probe
// counters split index-hit/full-scan. See ProfileContext.
//
//kdb:entrypoint
func (k *KB) Profile(subject term.Atom, where term.Formula) (*eval.Result, *profile.Profile, error) {
	return k.ProfileContext(context.Background(), subject, where)
}

// ProfileContext runs a governed retrieve of subject/where with
// profiling on and returns the answers together with the per-rule cost
// profile — the runtime "explain analyze" of one evaluation. On a
// governed stop the partial profile is returned alongside the error, so
// a query killed by a limit still shows where the time went.
func (k *KB) ProfileContext(ctx context.Context, subject term.Atom, where term.Formula) (*eval.Result, *profile.Profile, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.closed {
		return nil, nil, ErrClosed
	}
	p := profile.New()
	if h := profileHolderFromContext(ctx); h != nil {
		h.p.Store(p)
	}
	engine := k.newEngine(ctx, eval.WithProfile(p))
	res, err := engine.RetrieveContext(ctx, eval.Query{Subject: subject, Where: where})
	k.recordStats(engine)
	if err != nil {
		return nil, p, err
	}
	return res, p, nil
}

// maxExplainNodes bounds the reconstructed derivation tree of one
// explain statement: generous enough for real programs, small enough
// that a pathological witness graph cannot exhaust memory while
// rendering.
const maxExplainNodes = 10000

// Explain evaluates the subject like Retrieve while recording one
// why-provenance witness per derived fact, then reconstructs the
// derivation tree of every answer. See ExplainContext.
//
//kdb:entrypoint
func (k *KB) Explain(subject term.Atom, where term.Formula) (*prov.Explanation, error) {
	return k.ExplainContext(context.Background(), subject, where)
}

// ExplainContext runs a governed retrieve of subject/where with
// why-provenance recording on (the configured MaxProvenanceEntries
// limit applies), then rebuilds the derivation trees of the answers.
// Trees are cycle-safe for recursive predicates; leaves distinguish
// stored facts (edb) from comparisons (builtin). The same recording
// works on every engine, so an explain is a cross-checkable artifact:
// all four engines must justify a fact by some valid tree.
func (k *KB) ExplainContext(ctx context.Context, subject term.Atom, where term.Formula) (*prov.Explanation, error) {
	k.mu.RLock()
	if k.closed {
		k.mu.RUnlock()
		return nil, ErrClosed
	}
	rec := prov.NewRecorder()
	engine := k.newEngine(ctx, eval.WithProvenance(rec))
	res, err := engine.RetrieveContext(ctx, eval.Query{Subject: subject, Where: where})
	k.recordStats(engine)
	if err != nil {
		k.mu.RUnlock()
		return nil, err
	}
	store := k.store
	k.mu.RUnlock()

	esp := obs.SpanFromContext(ctx).Child("explain")
	isStored := func(a term.Atom) bool { return store.Contains(a) }
	exp := rec.Explain(subject, res.Atoms(subject), isStored, maxExplainNodes)
	esp.SetInt("trees", int64(len(exp.Trees)))
	esp.SetInt("nodes", int64(exp.Nodes))
	esp.End()
	k.qmetrics.Load().ObserveExplain(int64(exp.Nodes))
	return exp, nil
}

// DescribeOr evaluates a knowledge query with a disjunctive hypothesis:
// the answers that hold under every disjunct.
//
//kdb:entrypoint
func (k *KB) DescribeOr(subject term.Atom, disjuncts []term.Formula) (*core.Answers, error) {
	return k.DescribeOrContext(context.Background(), subject, disjuncts)
}

// DescribeOrContext is DescribeOr under the context and the configured
// query limits.
func (k *KB) DescribeOrContext(ctx context.Context, subject term.Atom, disjuncts []term.Formula) (*core.Answers, error) {
	asp := obs.SpanFromContext(ctx).Child("analyze")
	d, err := k.getDescriberFor(subject)
	asp.End()
	if err != nil {
		return nil, err
	}
	ans, err := d.DescribeOrContext(ctx, subject, disjuncts, k.effectiveLimits(ctx))
	if err != nil {
		return nil, err
	}
	k.observeDescribe(ans.Nodes)
	k.applyDisplayNames(ans)
	k.attachNotes(subject, ans)
	return ans, nil
}

func (k *KB) showProvenance() bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.provenance
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
func (k *KB) Provenance() bool { return k.showProvenance() }

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
// off (off by default). When on, Exec answers a retrieve with both the
// extension AND the knowledge characterizing it — the combined
// data+knowledge responses of the intensional-answer literature the
// paper's introduction surveys (mechanism 2 of its three).
func (k *KB) SetIntensional(on bool) {
	k.mu.Lock()
	k.intensional = on
	k.mu.Unlock()
}

// getDescriberFor is getDescriber with diagnostics-aware failure: when
// building the describe engine fails (e.g. degenerate recursion makes
// the §5.2 transformation inapplicable), the error is replaced by the
// stored analyzer diagnostics relevant to the subject, when there are
// any — the caller learns which rules are at fault and why, not just
// that the transformation failed.
func (k *KB) getDescriberFor(subject term.Atom) (*core.Describer, error) {
	d, err := k.getDescriber()
	if err != nil {
		if diags := k.describeDiagnostics(subject.Pred); len(diags) > 0 {
			return nil, &analysis.Error{Diags: diags}
		}
	}
	return d, err
}

// describeDiagnostics returns the stored diagnostics about the subject
// predicate, its recursive component, and everything it depends on.
func (k *KB) describeDiagnostics(pred string) []analysis.Diagnostic {
	k.mu.RLock()
	rep := k.report
	rules := append([]term.Rule(nil), k.rules...)
	k.mu.RUnlock()
	if rep == nil {
		return nil
	}
	g := depgraph.New(rules)
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
// recursion diagnostics say which rules are responsible.
func (k *KB) attachNotes(subject term.Atom, ans *core.Answers) {
	rep := k.Diagnostics()
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
	for _, d := range k.describeDiagnostics(subject.Pred) {
		if d.Analyzer == "recursion" && d.Severity == analysis.SevWarning {
			ans.Notes = append(ans.Notes, d.String())
		}
	}
}

func (k *KB) getDescriber() (*core.Describer, error) {
	k.mu.RLock()
	d := k.describer
	closed := k.closed
	k.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if d != nil {
		return d, nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, ErrClosed
	}
	if k.describer != nil {
		return k.describer, nil
	}
	keys := make(map[string][][]int)
	for _, class := range []catalog.Class{catalog.ClassEDB, catalog.ClassIDB} {
		for _, p := range k.cat.Preds(class) {
			if len(p.Keys) > 0 {
				keys[p.Name] = p.Keys
			}
		}
	}
	opts := k.opts
	opts.Constraints = append(append([]term.Formula{}, opts.Constraints...), k.constraints...)
	d, err := core.New(k.rules, keys, opts)
	if err != nil {
		return nil, err
	}
	k.describer = d
	return d, nil
}

// Describe evaluates a knowledge query (§3.2). Artificial step-predicate
// names in answers are replaced by their @name display names. The
// configured query limits apply; use DescribeContext to also support
// cancellation.
//
//kdb:entrypoint
func (k *KB) Describe(subject term.Atom, where term.Formula) (*core.Answers, error) {
	return k.DescribeContext(context.Background(), subject, where)
}

// DescribeContext evaluates a knowledge query under the context and the
// configured query limits: the describe search checks cancellation
// cooperatively, and MaxDescribeNodes bounds its steps as a hard error
// (unlike the describe engine's own MaxNodes option, which truncates).
func (k *KB) DescribeContext(ctx context.Context, subject term.Atom, where term.Formula) (*core.Answers, error) {
	asp := obs.SpanFromContext(ctx).Child("analyze")
	d, err := k.getDescriberFor(subject)
	asp.End()
	if err != nil {
		return nil, err
	}
	ans, err := d.DescribeContext(ctx, subject, where, k.effectiveLimits(ctx))
	if err != nil {
		return nil, err
	}
	k.observeDescribe(ans.Nodes)
	k.applyDisplayNames(ans)
	k.attachNotes(subject, ans)
	return ans, nil
}

// DescribeNecessary evaluates `describe … where necessary ψ` (§6 ext. 1).
//
//kdb:entrypoint
func (k *KB) DescribeNecessary(subject term.Atom, where term.Formula) (*core.Answers, error) {
	return k.DescribeNecessaryContext(context.Background(), subject, where)
}

// DescribeNecessaryContext is DescribeNecessary under the context and
// the configured query limits.
func (k *KB) DescribeNecessaryContext(ctx context.Context, subject term.Atom, where term.Formula) (*core.Answers, error) {
	asp := obs.SpanFromContext(ctx).Child("analyze")
	d, err := k.getDescriberFor(subject)
	asp.End()
	if err != nil {
		return nil, err
	}
	ans, err := d.DescribeNecessaryContext(ctx, subject, where, k.effectiveLimits(ctx))
	if err != nil {
		return nil, err
	}
	k.observeDescribe(ans.Nodes)
	k.applyDisplayNames(ans)
	k.attachNotes(subject, ans)
	return ans, nil
}

// DescribeNot evaluates `describe … where not h …` (§6 ext. 2).
func (k *KB) DescribeNot(subject term.Atom, banned, positive term.Formula) (*core.Necessity, error) {
	d, err := k.getDescriberFor(subject)
	if err != nil {
		return nil, err
	}
	return d.DescribeNot(subject, banned, positive)
}

// Possible evaluates the subjectless describe (§6 ext. 3).
func (k *KB) Possible(where term.Formula) (*core.Possibility, error) {
	d, err := k.getDescriber()
	if err != nil {
		return nil, err
	}
	return d.Possible(where)
}

// DescribeWildcard evaluates `describe * where ψ` (§6 ext. 4).
//
//kdb:entrypoint
func (k *KB) DescribeWildcard(where term.Formula) ([]core.WildcardEntry, error) {
	return k.DescribeWildcardContext(context.Background(), where)
}

// DescribeWildcardContext is DescribeWildcard under the context and the
// configured query limits.
func (k *KB) DescribeWildcardContext(ctx context.Context, where term.Formula) ([]core.WildcardEntry, error) {
	d, err := k.getDescriber()
	if err != nil {
		return nil, err
	}
	entries, nodes, err := d.DescribeWildcardContext(ctx, where, k.effectiveLimits(ctx))
	if err != nil {
		return nil, err
	}
	k.observeDescribe(nodes)
	return entries, nil
}

// Compare evaluates the §6 compare statement.
func (k *KB) Compare(left term.Atom, leftHyp term.Formula, right term.Atom, rightHyp term.Formula) (*core.ConceptComparison, error) {
	d, err := k.getDescriber()
	if err != nil {
		return nil, err
	}
	return d.Compare(left, leftHyp, right, rightHyp)
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

// Exec parses and runs any query statement, returning a displayable
// result. It is the single coherent instrument the paper argues for: the
// caller does not need to know whether the question addresses data or
// knowledge.
//
//kdb:entrypoint
func (k *KB) Exec(q parser.Query) (*ExecResult, error) {
	return k.ExecContext(context.Background(), q)
}

// ExecContext is Exec under the context and the configured query limits
// (WithQueryLimits): retrieve and describe evaluations check the
// context cooperatively, so a deadline or a Ctrl-C-driven cancel stops
// an in-flight query with a structured error. The remaining statement
// forms (describe not, possible, wildcard, compare) run their bounded
// unfolding un-governed.
func (k *KB) ExecContext(ctx context.Context, q parser.Query) (*ExecResult, error) {
	ctx, finish := k.beginQuery(ctx)
	ctx, done := k.beginActivity(ctx, queryKind(q), q.String())
	res, err := k.execContext(ctx, q)
	if done != nil {
		done()
	}
	if finish != nil {
		finish(queryKind(q), q.String(), err)
	}
	return res, err
}

func (k *KB) execContext(ctx context.Context, q parser.Query) (*ExecResult, error) {
	switch s := q.(type) {
	case *parser.Retrieve:
		var res *eval.Result
		var prof *profile.Profile
		var err error
		if len(s.Or) > 0 {
			res, err = k.RetrieveOrContext(ctx, s.Subject, s.Disjuncts())
		} else if k.Profiling() {
			res, prof, err = k.ProfileContext(ctx, s.Subject, s.Where)
		} else {
			res, err = k.RetrieveContext(ctx, s.Subject, s.Where)
		}
		if err != nil {
			return nil, err
		}
		out := &ExecResult{Query: q, Retrieve: res, Profile: prof, subject: s.Subject}
		k.mu.RLock()
		intensional := k.intensional
		k.mu.RUnlock()
		if intensional {
			// Intensional answering: attach the knowledge characterizing
			// the extension, when the subject is an IDB concept.
			if ans, derr := k.DescribeOrContext(ctx, s.Subject, s.Disjuncts()); derr == nil {
				out.Knowledge = ans
			}
		}
		return out, nil
	case *parser.Describe:
		// A describe of a virtual relation answers from its fixed
		// definition: the schema is code, not loaded knowledge, so the
		// describe engine has nothing to unfold.
		if !s.Wildcard && !s.Subjectless && sysrel.IsName(s.Subject.Pred) {
			d := sysrel.Lookup(s.Subject.Pred)
			if d == nil {
				return nil, fmt.Errorf("kb: unknown system relation %s (the sys_ namespace is reserved)", s.Subject.Pred)
			}
			return &ExecResult{Query: q, System: fmt.Sprintf("%s — virtual relation: %s", d.Signature(), d.Doc)}, nil
		}
		switch {
		case s.Wildcard:
			if len(s.Not) > 0 {
				return nil, fmt.Errorf("kb: 'not' is not supported in a wildcard describe")
			}
			entries, err := k.DescribeWildcardContext(ctx, s.Where)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Wildcard: entries, wildcard: true}, nil
		case s.Subjectless:
			if len(s.Not) > 0 {
				return nil, fmt.Errorf("kb: 'not' is not supported in a subjectless describe")
			}
			p, err := k.Possible(s.Where)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Possibility: p}, nil
		case len(s.Not) > 0:
			n, err := k.DescribeNot(s.Subject, s.Not, s.Where)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Necessity: n}, nil
		case s.Necessary:
			ans, err := k.DescribeNecessaryContext(ctx, s.Subject, s.Where)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Describe: ans, provenance: k.showProvenance()}, nil
		case len(s.Or) > 0:
			ans, err := k.DescribeOrContext(ctx, s.Subject, s.Disjuncts())
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Describe: ans, provenance: k.showProvenance()}, nil
		default:
			ans, err := k.DescribeContext(ctx, s.Subject, s.Where)
			if err != nil {
				return nil, err
			}
			return &ExecResult{Query: q, Describe: ans, provenance: k.showProvenance()}, nil
		}
	case *parser.Explain:
		exp, err := k.ExplainContext(ctx, s.Subject, s.Where)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: q, Explanation: exp}, nil
	case *parser.Profile:
		res, prof, err := k.ProfileContext(ctx, s.Subject, s.Where)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: q, Retrieve: res, Profile: prof, subject: s.Subject}, nil
	case *parser.Compare:
		c, err := k.Compare(s.Left.Subject, s.Left.Where, s.Right.Subject, s.Right.Where)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Query: q, Comparison: c}, nil
	default:
		return nil, fmt.Errorf("kb: unsupported query %T", q)
	}
}

// ExecString parses and runs one query given as text.
//
//kdb:entrypoint
func (k *KB) ExecString(src string) (*ExecResult, error) {
	return k.ExecStringContext(context.Background(), src)
}

// ExecStringContext parses and runs one query given as text, under the
// context and the configured query limits (see ExecContext).
func (k *KB) ExecStringContext(ctx context.Context, src string) (*ExecResult, error) {
	ctx, finish := k.beginQuery(ctx)
	psp := obs.SpanFromContext(ctx).Child("parse")
	q, err := parser.ParseQuery(src)
	psp.End()
	if err != nil {
		if finish != nil {
			finish("parse", strings.TrimSpace(src), err)
		}
		return nil, err
	}
	ctx, done := k.beginActivity(ctx, queryKind(q), q.String())
	res, err := k.execContext(ctx, q)
	if done != nil {
		done()
	}
	if finish != nil {
		finish(queryKind(q), q.String(), err)
	}
	return res, err
}

// ExecResult is the displayable outcome of Exec: exactly one of the
// result fields is set, according to the query form.
type ExecResult struct {
	Query    parser.Query
	Retrieve *eval.Result
	// Profile carries the per-rule cost rows of a `profile p(…)`
	// statement (or of any retrieve when SetProfiling is on), rendered
	// after the answers as an annotated plan.
	Profile *profile.Profile
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

	subject    term.Atom
	wildcard   bool
	provenance bool
}

// String renders the result for a terminal.
func (r *ExecResult) String() string {
	switch {
	case r.System != "":
		return r.System
	case r.Retrieve != nil:
		var b strings.Builder
		if len(r.Retrieve.Tuples) == 0 {
			b.WriteString("no answers")
		} else {
			atoms := r.Retrieve.Atoms(r.subject)
			lines := make([]string, len(atoms))
			for i, a := range atoms {
				lines[i] = a.String()
			}
			sort.Strings(lines)
			b.WriteString(strings.Join(lines, "\n"))
		}
		if r.Knowledge != nil && !r.Knowledge.Empty() {
			b.WriteString("\nbecause:\n")
			for _, f := range r.Knowledge.Formulas {
				b.WriteString("  " + f.String() + "\n")
			}
			return strings.TrimRight(b.String(), "\n")
		}
		if r.Profile != nil {
			b.WriteString("\n\n")
			b.WriteString(strings.TrimRight(r.Profile.String(), "\n"))
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
