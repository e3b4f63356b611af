package eval

import (
	"context"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// engineConfig carries the tunables shared by the engine constructors.
type engineConfig struct {
	limits governor.Limits
	rec    *prov.Recorder
	prof   bool
}

// EngineOption tunes an engine at construction.
type EngineOption func(*engineConfig)

// WithLimits sets the per-query resource limits the engine's governor
// enforces on every evaluation. The zero value of each field means
// unlimited.
func WithLimits(l governor.Limits) EngineOption {
	return func(c *engineConfig) { c.limits = l }
}

// WithProvenance makes the engine record one why-provenance witness
// (the firing rule and the frame its body was solved in) for every newly
// derived fact into rec, bounded by the governor's MaxProvenanceEntries
// limit. No other goroutine may use rec meanwhile. The semi-naive engine
// honors it; top-down and magic ignore it. A nil recorder disables
// recording; the derive path then pays a single nil check (see
// TestProvenanceDisabledAllocs).
func WithProvenance(rec *prov.Recorder) EngineOption {
	return func(c *engineConfig) { c.rec = rec }
}

func buildConfig(opts []EngineOption) engineConfig {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// finishStats finalizes a stats record after the evaluation: wall time,
// per-component sums, the statement's storage counters, the profile rows,
// and — for a governed stop — the stop reason.
func finishStats(stats *EvalStats, start time.Time, counters *storage.Counters, rp *ruleProfiler, err error) {
	stats.Wall = time.Since(start)
	for i := range stats.Components {
		stats.Facts += stats.Components[i].Facts
		stats.Lookups += stats.Components[i].Lookups
	}
	stats.Probes = counters.Probes
	stats.Candidates = counters.Candidates
	stats.IndexBuilds = counters.IndexBuilds
	stats.FullScans = counters.FullScans
	stats.Profile = rp.finish()
	stats.StopReason = governor.StopReason(err)
}

// derived holds the materialized extensions of IDB predicates during a
// bottom-up evaluation, one table each. It belongs to one statement
// evaluated on one goroutine, so the map needs no lock.
type derived map[string]*table

// insert adds a derived fact to its predicate's table, creating the table
// on the predicate's first fact.
func (d derived) insert(a term.Atom) (bool, error) {
	t, ok := d[a.Pred]
	if !ok {
		var err error
		if t, err = newTable(len(a.Args)); err != nil {
			return false, err
		}
		d[a.Pred] = t
	}
	return t.insert(a.Args)
}

// bottomUp is the semi-naive bottom-up engine.
type bottomUp struct {
	in     Input
	limits governor.Limits
	rec    *prov.Recorder
	prof   bool
	// full derives every relevant predicate in full: magic's inner run,
	// whose rewrite has already pushed the statement's constants into
	// its magic predicates.
	full  bool
	stats atomic.Pointer[EvalStats]
}

// NewSemiNaive returns the semi-naive bottom-up engine: within each
// recursive SCC, rules are differentiated on their recursive body atoms
// so each iteration only joins against the facts new in the previous
// iteration.
func NewSemiNaive(in Input, opts ...EngineOption) Engine {
	cfg := buildConfig(opts)
	return &bottomUp{in: in, limits: cfg.limits, rec: cfg.rec, prof: cfg.prof}
}

// Name identifies the engine.
func (e *bottomUp) Name() string { return "seminaive" }

// LastStats returns the statistics of the most recent RetrieveContext.
func (e *bottomUp) LastStats() *EvalStats { return e.stats.Load() }

// RetrieveContext evaluates the query bottom-up under the governor.
// Components of the dependency graph's condensation are evaluated one
// after another in dependency order. Cancellation and limit breaches
// stop the fixpoint loops cooperatively and return a *StopError; a panic
// inside a component is contained there and stops the evaluation the
// same way, so its record carries StopReason "panic".
func (e *bottomUp) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, e.limits)
	defer cancel()
	planStart := time.Now()
	p, err := buildPlan(e.in, q, !e.full)
	if err != nil {
		return nil, err
	}
	if !e.full {
		p.sideways()
	}
	// The observability counters are private to this query and threaded
	// through every storage probe, so concurrent queries over the same
	// store keep independent counts.
	counters := &storage.Counters{}
	act := obs.ActivityFromContext(ctx)
	base := component{plan: p, store: e.in.Store, virtual: p.virtual, d: make(derived), gov: gov, rec: e.rec, ctrs: counters, act: act}
	if e.prof {
		base.rp = newRuleProfiler(counters)
	}

	// The schedule is the rule set's components in dependency order, then
	// the query rules' own. The record, sized by a count, lists those run.
	sccs := p.set.graph.SCCOrder()
	running := func(i int) []string { // nil: no rule of it can contribute to the answer
		comp := queryComponent
		if i < len(sccs) {
			comp = sccs[i]
		}
		if !slices.ContainsFunc(comp, p.defines) || !slices.ContainsFunc(comp, p.relevant) {
			return nil
		}
		return comp
	}
	runs := 0
	for i := range len(sccs) + 1 {
		if running(i) != nil {
			runs++
		}
	}
	stats := &EvalStats{Engine: e.Name(), Components: make([]ComponentStats, 0, runs)}
	defer func() {
		for i := range p.callees {
			if ce := &p.callees[i]; ce.calls != nil {
				callTables.Put(ce.calls.reset())
			}
		}
	}()
	start := time.Now()
	stats.Plan = start.Sub(planStart)
	evalOne := func(i int, comp []string) (err error) {
		defer governor.Recover(&err)
		stats.Components = append(stats.Components, ComponentStats{Preds: comp}) // within its capacity
		cs := &stats.Components[len(stats.Components)-1]
		for j := range p.callees {
			if ce := &p.callees[j]; ce.idx == i {
				ce.start(base, p, cs)
			}
		}
		if cs.Mask != "" {
			return nil // specialised: its callers run it (component.fire)
		}
		if err := gov.Err(); err != nil {
			return err
		}
		if i == len(sccs) {
			base.out = p.answers(&base)
		}
		t0 := time.Now()
		err = evalComponent(base, p, comp, cs)
		cs.Wall += time.Since(t0)
		act.AddProgress(0, cs.Lookups)
		return err
	}
	provStart := e.rec.Len()
	var runErr error
	for i := range len(sccs) + 1 {
		if comp := running(i); comp != nil {
			if runErr = evalOne(i, comp); runErr != nil {
				break
			}
		}
	}
	finishStats(stats, start, counters, base.rp, runErr)
	stats.ProvEntries = e.rec.Len() - provStart
	e.stats.Store(stats)
	if runErr != nil {
		return nil, &StopError{Stats: stats, Err: runErr}
	}
	return collect(p, base.d, base.out), nil
}

// answers marks a statement none of whose answers can repeat
// (plan.answers): its query table keeps no member set, and an identity
// statement's answers are the rows it matched, with no table at all.
type answers struct {
	rows    []storage.Tuple // identity: the rows matched so far; nil for any other
	matched storage.Tuple   // identity: the row being matched
	table   table           // any other: the query table
}

// answers readies the query component c's answers, or returns nil when a
// table must weed out repeats (package doc). Each body relation is a set,
// so solutions that bind answer variables alone are distinct answers.
func (p *plan) answers(c *component) *answers {
	r := p.query[0].rule
	if len(p.query) > 1 || slices.ContainsFunc(r.Body, func(a term.Atom) bool {
		return slices.ContainsFunc(a.Args, func(t term.Term) bool { return t.IsVar() && !slices.Contains(r.Head.Args, t) })
	}) {
		return nil
	}
	out := &answers{table: table{arity: len(r.Head.Args)}}
	if len(r.Body) != 1 || !slices.Equal(r.Body[0].Args, r.Head.Args) {
		c.d[queryPredName] = &out.table
		return out
	}
	n, a := 0, r.Body[0] // the subject's derived rows and stored tuples bound its answers
	if t := c.d[a.Pred]; t != nil {
		n = t.n
	}
	if rel := c.store.Relation(a.Pred); rel != nil {
		n += rel.Len()
	}
	out.rows = make([]storage.Tuple, 0, n)
	return out
}

// component is the evaluation of one SCC's rules and the driver of their
// runners. Every component it depends on has completed before it starts,
// so the only relations that grow during the run are the component's own.
type component struct {
	plan    *plan
	store   *storage.Store
	virtual map[string]*storage.Relation
	d       derived
	gov     *governor.Governor
	rec     *prov.Recorder
	cs      *ComponentStats
	rp      *ruleProfiler
	ctrs    *storage.Counters // the statement's probe sink
	act     *obs.Activity
	sink    *table   // the call table a running prefix fills
	out     *answers // the query component's answers, nil: its table

	// windows hold, per predicate of the component, the positions its
	// derived relation gained in the previous round: the semi-naive delta,
	// served from the derived relation itself: a recursive component's,
	// or a callee's call table. fresh counts this round's new facts.
	windows []window
	fresh   int
	// pin is the body position the running variant resolves against the
	// delta instead of the full extension; -1 for none.
	pin int
}

// window is the delta of one predicate: the rows [from, to) of its
// derived table. A table only grows, in insertion order, so a round's new
// facts are one range of its rows.
type window struct {
	pred     string
	from, to int
}

// componentRule is one rule of the component, with the body positions
// of its recursive atoms and the runner of its body.
type componentRule struct {
	rule term.Rule
	rec  []int
	run  *runner
	join *runner // the whole body, its calls first, once they are answered
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
		w := c.window(pred)
		if w.from == w.to {
			return nil
		}
		p.selectTable(c.d[pred], c.ctrs, w.from, w.to)
		return nil
	}
	c.cs.Lookups++
	c.rp.countLookup()
	if err := c.gov.Tick(); err != nil {
		return err
	}
	if vr := c.virtual[pred]; vr != nil {
		return p.selectFrom(vr, c.ctrs, "derived")
	}
	t := c.d[pred]
	if t != nil {
		// Stop here when the enumeration was ended from inside (the runner
		// holds the error that ended it).
		if p.selectTable(t, c.ctrs, 0, t.n); p.r.err != nil {
			return nil
		}
	}
	return p.selectStored(c.store, t, c.ctrs)
}

// window returns the delta of pred, one of the component's predicates.
func (c *component) window(pred string) window {
	for _, w := range c.windows {
		if w.pred == pred {
			return w
		}
	}
	return window{}
}

// derive adds one derived head to the derived table of its predicate; a
// new fact is counted and recorded. The next round's delta is where the
// table has grown to, so nothing else is stored. A prefix's solution is
// a row of the call table instead.
func (c *component) derive(r *runner) error {
	if r.upto < len(r.prog.steps) {
		_, err := c.sink.insert(r.callRow())
		return err
	}
	fact, err := r.fact()
	if err != nil {
		return err
	}
	switch {
	case c.out == nil:
		if added, err := c.d.insert(fact); err != nil || !added {
			return err
		}
	case c.out.rows != nil:
		c.out.rows = append(c.out.rows, c.out.matched)
	default:
		if err := c.out.table.put(fact.Args); err != nil {
			return err
		}
	}
	c.fresh++
	c.rp.fresh()
	if err := c.gov.CountFacts(1); err != nil {
		return err
	}
	return recordProv(c.rec, c.gov, r)
}

// round applies the rules once, after moving each delta window to the
// facts the previous round added: c.fresh is how many facts were new. The
// counters are committed even on a governed stop, so the stats attached
// to the error reflect the work done.
func (c *component) round(rules []componentRule, differentiated bool) error {
	for i := range c.windows {
		if w := &c.windows[i]; c.d[w.pred] != nil {
			w.from, w.to = w.to, c.d[w.pred].n
		}
	}
	c.fresh = 0
	err := c.applyRules(rules, differentiated)
	c.cs.Iterations++
	c.cs.Facts += c.fresh
	c.cs.DeltaSizes = append(c.cs.DeltaSizes, c.fresh)
	// Facts stream to the activity entry per round, not per component,
	// so a long recursive fixpoint shows movement in `kdb top`.
	c.act.AddProgress(int64(c.fresh), 0)
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
		c.rp.begin(cr.rule)
		var err error
		for _, c.pin = range pins {
			if err = c.fire(cr); err != nil {
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

// fire runs one rule. Each call of a specialised callee first runs the
// prefix up to it, filling the callee's call table, then the callee's
// rules for its new rows, as a round of its component whose time is not
// the caller's, the rule's round paused; then the whole body joins.
func (c *component) fire(cr componentRule) error {
	r, join := cr.run, cr.join
	for _, cl := range r.prog.calls {
		ce := c.plan.callee(cl.table)
		if ce == nil {
			join = r // a predicate derived in full may be large: no join
			continue
		}
		c.sink, r.upto = ce.calls, cl.step
		err := r.exec()
		r.upto = len(r.prog.steps)
		if cc := &ce.comp; err == nil && ce.calls.n > cc.windows[0].to {
			open, t0, lookups := c.rp.pause(), time.Now(), cc.cs.Lookups
			err = cc.round(ce.rules, true)
			wall := time.Since(t0)
			cc.cs.Wall, c.cs.Wall = cc.cs.Wall+wall, c.cs.Wall-wall
			cc.cs.Calls += cc.windows[0].to - cc.windows[0].from
			c.act.AddProgress(0, cc.cs.Lookups-lookups)
			c.rp.resume(open)
		}
		if err != nil {
			return err
		}
	}
	return join.exec()
}

// start readies the callee for the evaluation base begins: its call
// table, its rules pinned at their scan of it, and its record's mask.
func (ce *callee) start(base component, p *plan, cs *ComponentStats) {
	calls, _ := callTables.Get().(*table)
	if n := bits.OnesCount64(ce.mask); calls == nil || calls.arity != n {
		calls = &table{arity: n} // the walk specialises no arity over 63
	}
	ce.calls, base.d[ce.table] = calls, calls
	ce.comp = base
	ce.comp.cs = cs
	ce.win[0].pred = ce.table
	ce.comp.windows = ce.win[:]
	prs := p.rules(ce.pred)
	ce.rules = make([]componentRule, len(prs))
	for i := range prs {
		ce.rules[i] = newComponentRule(p, &prs[i], ce.mask, &ce.comp)
	}
	if mask := ce.table[strings.LastIndexByte(ce.table, '#')+1:]; cs.Mask == "" {
		cs.Mask = mask
	} else {
		cs.Mask += "," + mask
	}
}

// newComponentRule readies pr for calls binding mask, pinned at its
// call-table scan, with a body joining its answered calls first.
func newComponentRule(p *plan, pr *preparedRule, mask uint64, drv driver) componentRule {
	prog := pr.prog
	if p.callees != nil {
		prog = p.set.compiledFor(pr, mask, false)
	}
	cr := componentRule{rule: pr.rule, rec: pr.rec, run: newRunner(pr.rule, prog, drv)}
	if cr.join = cr.run; mask != 0 {
		cr.rec = prog.guard
	}
	if prog.calls != nil && pr.rule.Head.Pred != queryPredName {
		cr.join = newRunner(pr.rule, p.set.compiledFor(pr, mask, true), drv)
	}
	return cr
}

// evalComponent computes the fixpoint of one SCC's rules, each run from
// the body the statement's plan compiled, on base's statement state.
func evalComponent(base component, p *plan, comp []string, cs *ComponentStats) error {
	c := &base
	c.cs = cs
	n := 0
	for _, pred := range comp {
		n += len(p.rules(pred))
	}
	rules := make([]componentRule, 0, n)
	for _, pred := range comp {
		prs := p.rules(pred)
		for i := range prs {
			pr := &prs[i]
			rules = append(rules, newComponentRule(p, pr, 0, c))
			cs.Recursive = cs.Recursive || len(pr.rec) > 0
		}
	}
	if out := c.out; out != nil && out.rows != nil {
		p := &rules[0].run.probes[0] // the subject's, each row it matches clipped
		p.each = func(t storage.Tuple) bool {
			out.matched = t[:len(t):len(t)]
			return p.onTuple(t)
		}
	}
	if cs.Recursive {
		c.windows = make([]window, len(comp))
		for i, pred := range comp {
			c.windows[i].pred = pred
		}
	}

	// First round: apply every rule once against the current state.
	if err := c.round(rules, false); err != nil || !cs.Recursive {
		return err
	}
	// Iterate to fixpoint, checking the governor between rounds.
	for c.fresh > 0 {
		if err := c.gov.Err(); err != nil {
			return err
		}
		if err := c.gov.CheckIterations(cs.Iterations + 1); err != nil {
			return err
		}
		if err := c.round(rules, true); err != nil {
			return err
		}
	}
	return nil
}

// collect hands over the answers, the query table's rows or the rows an
// identity statement matched, which the evaluation no longer touches.
func collect(p *plan, d derived, out *answers) *Result {
	res := &Result{Vars: p.vars()}
	if t := d[queryPredName]; t != nil {
		res.Tuples = t.rows()
	}
	if out != nil && len(out.rows) > 0 {
		res.Tuples = out.rows
	}
	return res
}
