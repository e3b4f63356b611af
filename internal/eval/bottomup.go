package eval

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// engineConfig carries the tunables shared by the engine constructors.
type engineConfig struct {
	workers int
	limits  governor.Limits
	rec     *prov.Recorder
	prof    *profile.Profile
	labels  map[string]profLabel
}

// EngineOption tunes an engine at construction.
type EngineOption func(*engineConfig)

// WithWorkers sets the SCC worker-pool size of the bottom-up engines
// (and of the bottom-up core of the magic engine): independent strongly
// connected components of the rule dependency graph are evaluated
// concurrently on up to n goroutines. n <= 0 selects GOMAXPROCS; the
// default is 1, which keeps the evaluation strictly sequential (the
// correctness baseline). The top-down engine ignores this option.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithLimits sets the per-query resource limits the engine's governor
// enforces on every evaluation (Retrieve delegates to RetrieveContext
// with a background context). The zero value of each field means
// unlimited.
func WithLimits(l governor.Limits) EngineOption {
	return func(c *engineConfig) { c.limits = l }
}

// WithProvenance makes the engine record one why-provenance witness
// (firing rule plus ground parent facts) for every newly derived fact
// into rec, bounded by the governor's MaxProvenanceEntries limit. All
// four engines honor it. A nil recorder disables recording; the derive
// path then pays a single nil check (see TestProvenanceDisabledAllocs).
func WithProvenance(rec *prov.Recorder) EngineOption {
	return func(c *engineConfig) { c.rec = rec }
}

func buildConfig(opts []EngineOption) engineConfig {
	cfg := engineConfig{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// finishStats finalizes a stats record after the component loop: wall
// time, per-component sums, storage counters, and — for a governed
// stop — the stop reason.
func finishStats(stats *EvalStats, start time.Time, counters *storage.Counters, err error) {
	stats.Wall = time.Since(start)
	for i := range stats.Components {
		stats.Facts += stats.Components[i].Facts
		stats.Lookups += stats.Components[i].Lookups
	}
	stats.Probes = counters.Probes.Load()
	stats.Candidates = counters.Candidates.Load()
	stats.IndexBuilds = counters.IndexBuilds.Load()
	stats.FullScans = counters.FullScans.Load()
	stats.StopReason = governor.StopReason(err)
}

// derived holds the materialized extensions of IDB predicates during a
// bottom-up evaluation. The map is guarded by a mutex so independent
// SCCs can insert and look up concurrently; each relation is internally
// synchronized by storage.Relation's own lock.
type derived struct {
	mu       sync.RWMutex
	rels     map[string]*storage.Relation
	counters *storage.Counters // attached to every relation created here
}

func newDerived(c *storage.Counters) *derived {
	return &derived{rels: make(map[string]*storage.Relation), counters: c}
}

// get returns the relation for pred, or nil if no fact for pred has been
// derived yet.
func (d *derived) get(pred string) *storage.Relation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rels[pred]
}

func (d *derived) relation(pred string, arity int) (*storage.Relation, error) {
	d.mu.RLock()
	r, ok := d.rels[pred]
	d.mu.RUnlock()
	if ok {
		return r, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.rels[pred]; ok {
		return r, nil
	}
	r, err := storage.NewRelation(arity)
	if err != nil {
		return nil, err
	}
	if d.counters != nil {
		r.SetCounters(d.counters)
	}
	d.rels[pred] = r
	return r, nil
}

func (d *derived) insert(a term.Atom) (bool, error) {
	r, err := d.relation(a.Pred, len(a.Args))
	if err != nil {
		return false, err
	}
	return r.Insert(storage.Tuple(a.Args))
}

// bottomUp is the shared driver for the naive and semi-naive engines.
type bottomUp struct {
	in        Input
	seminaive bool
	workers   int
	limits    governor.Limits
	rec       *prov.Recorder
	prof      *profile.Profile
	labels    map[string]profLabel
	stats     atomic.Pointer[EvalStats]
}

// NewNaive returns the naive bottom-up engine: it recomputes every rule
// against the full extensions until no new fact appears. It is the
// correctness baseline the optimized engines are tested against.
func NewNaive(in Input, opts ...EngineOption) Engine {
	cfg := buildConfig(opts)
	return &bottomUp{in: in, workers: cfg.workers, limits: cfg.limits, rec: cfg.rec,
		prof: cfg.prof, labels: cfg.labels}
}

// NewSemiNaive returns the semi-naive bottom-up engine: within each
// recursive SCC, rules are differentiated on their recursive body atoms
// so each iteration only joins against the facts new in the previous
// iteration. With WithWorkers(n), independent SCCs are evaluated
// concurrently.
func NewSemiNaive(in Input, opts ...EngineOption) Engine {
	cfg := buildConfig(opts)
	return &bottomUp{in: in, seminaive: true, workers: cfg.workers, limits: cfg.limits, rec: cfg.rec,
		prof: cfg.prof, labels: cfg.labels}
}

// Name identifies the engine.
func (e *bottomUp) Name() string {
	name := "naive"
	if e.seminaive {
		name = "seminaive"
	}
	if e.workers > 1 {
		name += "-par"
	}
	return name
}

// LastStats returns the statistics of the most recent Retrieve.
func (e *bottomUp) LastStats() *EvalStats { return e.stats.Load() }

// Retrieve evaluates the query bottom-up to completion (no context).
// Configured limits (WithLimits) still apply.
//
//kdb:entrypoint
func (e *bottomUp) Retrieve(q Query) (*Result, error) {
	return e.RetrieveContext(context.Background(), q)
}

// RetrieveContext evaluates the query bottom-up under the governor.
// Components of the dependency graph's condensation are evaluated in
// dependency order — sequentially, or on a worker pool that runs
// independent components concurrently. Cancellation and limit breaches
// stop the fixpoint loops cooperatively and return a *StopError; panics
// anywhere in the evaluation (worker goroutines included) are contained.
func (e *bottomUp) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, e.limits)
	defer cancel()
	sp := obs.SpanFromContext(ctx)
	asp := sp.Child("analyze")
	p, err := buildPlan(e.in, q)
	if err != nil {
		asp.End()
		return nil, err
	}
	asp.End()
	// The observability counters are private to this query and threaded
	// through every storage probe (SelectCounted), so
	// concurrent queries over the same store keep independent counts.
	counters := &storage.Counters{}
	d := newDerived(counters)
	relevant := p.relevantPreds()

	components := p.graph.SCCOrder()
	stats := &EvalStats{
		Engine:     e.Name(),
		Workers:    e.workers,
		Components: make([]ComponentStats, len(components)),
	}
	evalSp := sp.Child("eval")
	evalSp.SetStr("engine", e.Name())
	evalSp.SetInt("workers", int64(e.workers))
	evalSp.SetInt("components", int64(len(components)))
	start := time.Now()
	act := obs.ActivityFromContext(ctx)
	evalOne := func(i, worker int) error {
		comp := components[i]
		cs := &stats.Components[i]
		cs.Preds = comp
		needed := false
		hasRules := false
		for _, pred := range comp {
			if relevant[pred] {
				needed = true
			}
			if len(p.graph.RulesFor(pred)) > 0 {
				hasRules = true
			}
		}
		if !needed || !hasRules {
			cs.Skipped = true
			return nil
		}
		if err := gov.Err(); err != nil {
			return err
		}
		csp := evalSp.Child("scc")
		csp.SetWorker(worker)
		csp.SetStr("preds", strings.Join(comp, " "))
		t0 := time.Now()
		err := e.evalComponent(p, d, gov, comp, cs, act)
		cs.Wall = time.Since(t0)
		act.AddProgress(0, cs.Lookups)
		csp.SetInt("iterations", int64(cs.Iterations))
		csp.SetInt("facts", int64(cs.Facts))
		csp.SetInt("lookups", int64(cs.Lookups))
		csp.SetBool("recursive", cs.Recursive)
		csp.End()
		return err
	}
	provStart := e.rec.Len()
	var runErr error
	if e.workers <= 1 {
		for i := range components {
			if runErr = evalOne(i, 0); runErr != nil {
				break
			}
		}
	} else {
		runErr = runDAG(e.workers, p.graph.SCCDeps(), evalOne)
	}
	finishStats(stats, start, counters, runErr)
	stats.ProvEntries = e.rec.Len() - provStart
	if e.prof != nil {
		e.prof.SetEngine(e.Name())
		e.prof.SetWall(stats.Wall)
	}
	e.stats.Store(stats)
	endEvalSpan(evalSp, sp, stats)
	if runErr != nil {
		return nil, &StopError{Stats: stats, Err: runErr}
	}
	return e.collect(p, d), nil
}

// endEvalSpan folds the finished stats into the eval span and emits the
// storage-probe summary span. Nil-safe (untraced queries pass nil).
func endEvalSpan(evalSp, parent *obs.Span, stats *EvalStats) {
	evalSp.SetInt("facts", int64(stats.Facts))
	evalSp.SetInt("lookups", stats.Lookups)
	if stats.StopReason != "" && stats.StopReason != "ok" {
		evalSp.SetStr("stop", stats.StopReason)
	}
	evalSp.End()
	if parent == nil {
		return
	}
	ssp := parent.Child("storage")
	ssp.SetInt("probes", stats.Probes)
	ssp.SetInt("candidates", stats.Candidates)
	ssp.SetInt("index_builds", stats.IndexBuilds)
	ssp.End()
}

// component is the evaluation of one SCC's rules and the driver of their
// runners. It runs on a single goroutine; under parallel evaluation the
// scheduler guarantees every component it depends on has completed, so
// the only relations that grow during the run are the component's own.
type component struct {
	store   *storage.Store
	virtual map[string]*storage.Relation
	d       *derived
	gov     *governor.Governor
	rec     *prov.Recorder
	cs      *ComponentStats
	rp      *ruleProfiler

	// delta holds the facts new in the previous round and next collects
	// those new in this one; fresh counts them.
	delta, next *derived
	fresh       int
	// pin is the body position the running variant resolves against
	// delta instead of the full extension; -1 for none.
	pin int
}

// componentRule is one rule of the component, compiled, with the body
// positions of its recursive atoms.
type componentRule struct {
	run *runner
	rec []int
}

// noPin is the variant list of an undifferentiated round.
var noPin = []int{-1}

// resolve serves a body atom from the union of the derived and stored
// extensions: derived facts are enumerated first, then stored facts —
// less the stored tuples already present in the derived relation, so no
// tuple is fed twice. Virtual predicates resolve against their per-query
// plan snapshot and nothing else; the pinned atom of a semi-naive variant
// resolves against the delta. Each lookup performs one amortized governor
// check, which bounds the cancellation latency of even a single very
// large fixpoint round.
func (c *component) resolve(p *probe) error {
	pred := p.st.atom.Pred
	if p.st.idx == c.pin {
		if err := c.gov.Tick(); err != nil {
			return err
		}
		rel := c.delta.get(pred)
		if rel == nil {
			return nil
		}
		// rp.storageCounters() is nil when profiling is off; the delta
		// relation then falls back to its attached (query-wide) counters.
		return p.selectFrom(rel, c.rp.storageCounters(), "derived")
	}
	c.cs.Lookups++
	c.rp.countLookup()
	if err := c.gov.Tick(); err != nil {
		return err
	}
	// With profiling on, probes are charged to the current rule's sink,
	// which chains onto the query-wide counters.
	ctrs := c.d.counters
	if rc := c.rp.storageCounters(); rc != nil {
		ctrs = rc
	}
	if vr := c.virtual[pred]; vr != nil {
		return p.selectFrom(vr, ctrs, "derived")
	}
	rel := c.d.get(pred)
	if rel != nil {
		// Stop here on a probe error, or when the enumeration was ended
		// from inside (the runner holds the error that ended it).
		if err := p.selectFrom(rel, ctrs, "derived"); err != nil || p.r.err != nil {
			return err
		}
	}
	return p.selectStored(c.store, rel, ctrs)
}

// derive adds one derived head to the component's relations; a new fact
// is counted, recorded and put in the next delta.
func (c *component) derive(r *runner) error {
	fact, err := r.fact()
	if err != nil {
		return err
	}
	added, err := c.d.insert(fact)
	if err != nil || !added {
		return err
	}
	c.fresh++
	c.rp.fresh()
	if err := c.gov.CountFacts(1); err != nil {
		return err
	}
	if err := recordProv(c.rec, c.gov, r); err != nil {
		return err
	}
	_, err = c.next.insert(fact)
	return err
}

// round applies the rules once, with a new delta to fill: c.fresh is how
// many facts were new. The counters are committed even on a governed
// stop, so the stats attached to the error reflect the work done.
func (c *component) round(rules []componentRule, differentiated bool, act *obs.Activity) error {
	c.delta, c.next, c.fresh = c.next, newDerived(c.d.counters), 0
	err := c.applyRules(rules, differentiated)
	c.cs.Iterations++
	c.cs.Facts += c.fresh
	c.cs.DeltaSizes = append(c.cs.DeltaSizes, c.fresh)
	// Facts stream to the activity entry per round, not per component,
	// so a long recursive fixpoint shows movement in `kdb top`.
	act.AddProgress(int64(c.fresh), 0)
	return err
}

// applyRules derives the immediate consequences of the rules.
// Differentiated (semi-naive, after the first round), a rule with k
// recursive body atoms runs as k variants, each resolving one of them
// against the delta of the previous round, and a rule with none is
// skipped: it contributes nothing new after round one. Each rule's round
// is bracketed by the profiler (nil-safe when profiling is off).
func (c *component) applyRules(rules []componentRule, differentiated bool) error {
	for _, cr := range rules {
		pins := noPin
		if differentiated {
			if pins = cr.rec; len(pins) == 0 {
				continue
			}
		}
		c.rp.begin(cr.run.rule)
		var err error
		for _, c.pin = range pins {
			if err = cr.run.exec(); err != nil {
				break
			}
		}
		c.rp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// evalComponent computes the fixpoint of one SCC's rules, each compiled
// once for the component's lifetime.
func (e *bottomUp) evalComponent(p *plan, d *derived, gov *governor.Governor, comp []string, cs *ComponentStats, act *obs.Activity) error {
	inComp := make(map[string]bool, len(comp))
	for _, pred := range comp {
		inComp[pred] = true
	}
	c := &component{store: e.in.Store, virtual: p.virtual, d: d, gov: gov, rec: e.rec, cs: cs}
	if e.prof != nil {
		c.rp = newRuleProfiler(e.prof, e.labels, d.counters)
	}
	var rules []componentRule
	for _, pred := range comp {
		for _, r := range p.graph.RulesFor(pred) {
			cr := componentRule{run: newRunner(r, compileBody(r.Head, r.Body), c)}
			for i, a := range r.Body {
				if inComp[a.Pred] {
					cr.rec = append(cr.rec, i)
				}
			}
			cs.Recursive = cs.Recursive || len(cr.rec) > 0
			rules = append(rules, cr)
		}
	}

	// First round: apply every rule once against the current state.
	if err := c.round(rules, false, act); err != nil || !cs.Recursive {
		return err
	}
	// Iterate to fixpoint, checking the governor between rounds.
	for c.fresh > 0 {
		if err := gov.Err(); err != nil {
			return err
		}
		if err := gov.CheckIterations(cs.Iterations + 1); err != nil {
			return err
		}
		if err := c.round(rules, e.seminaive, act); err != nil {
			return err
		}
	}
	return nil
}

// collect hands over the tuples of the derived query relation, which
// nothing else can reach once the evaluation has returned.
func (e *bottomUp) collect(p *plan, d *derived) *Result {
	res := &Result{Vars: p.vars}
	r := d.get(queryPredName)
	if r == nil {
		return res
	}
	r.Scan(func(t storage.Tuple) bool {
		res.Tuples = append(res.Tuples, t)
		return true
	})
	return res
}
