package eval

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// topDown is a goal-directed engine: SLD resolution over the rules with
// tabling. Each distinct call pattern (predicate + bound-argument shape)
// gets a table of ground answers; recursive calls consume the answers
// derived so far, and an outer driver re-runs the computation until no
// table grows (naive-iteration tabling). This terminates on all Datalog
// programs and only ever touches predicates relevant to the goal.
type topDown struct {
	in     Input
	limits governor.Limits
	rec    *prov.Recorder
	prof   *profile.Profile
	stats  atomic.Pointer[EvalStats]
}

// NewTopDown returns the tabled top-down engine. It ignores WithWorkers
// (tabling shares one answer-table space across the whole resolution)
// but honors WithLimits, WithProvenance, and WithProfile.
func NewTopDown(in Input, opts ...EngineOption) Engine {
	cfg := buildConfig(opts)
	return &topDown{in: in, limits: cfg.limits, rec: cfg.rec, prof: cfg.prof}
}

// Name identifies the engine.
func (e *topDown) Name() string { return "topdown" }

// LastStats returns the statistics of the most recent Retrieve.
func (e *topDown) LastStats() *EvalStats { return e.stats.Load() }

// table holds the answers derived so far for one call pattern.
type table struct {
	answers *storage.Relation
	// inPass marks that this table's rules are being (or have been)
	// evaluated in the current pass, to avoid re-entering.
	pass int
}

type topDownRun struct {
	in    Input
	graph map[string][]term.Rule
	rn    term.Renamer
	gov   *governor.Governor
	rec   *prov.Recorder
	// virt holds the plan's per-query virtual-relation snapshots (nil
	// when the program references none).
	virt map[string]*storage.Relation

	tables   map[string]*table
	pass     int
	grew     bool
	counters *storage.Counters
	lookups  int64
	prof     *ruleProfiler
}

// Retrieve evaluates the query goal-directed to completion (no
// context). Configured limits (WithLimits) still apply.
//
//kdb:entrypoint
func (e *topDown) Retrieve(q Query) (*Result, error) {
	return e.RetrieveContext(context.Background(), q)
}

// RetrieveContext evaluates the query goal-directed under the governor:
// the naive-iteration driver checks cancellation and the pass budget
// between passes, every lookup performs an amortized check, and table
// allocation and answer insertion are bounded by MaxTableEntries and
// MaxFacts.
func (e *topDown) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
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
	// The counters are private to this query and threaded through every
	// stored-relation probe, so concurrent queries stay independent.
	run := &topDownRun{
		in:       e.in,
		graph:    make(map[string][]term.Rule),
		gov:      gov,
		rec:      e.rec,
		virt:     p.virtual,
		tables:   make(map[string]*table),
		counters: &storage.Counters{},
	}
	if e.prof != nil {
		run.prof = newRuleProfiler(e.prof, nil, run.counters)
	}
	provStart := e.rec.Len()
	for _, r := range p.rules {
		run.graph[r.Head.Pred] = append(run.graph[r.Head.Pred], r)
	}
	goal := p.rule.Head
	evalSp := sp.Child("eval")
	evalSp.SetStr("engine", e.Name())
	evalSp.SetInt("workers", 1)
	start := time.Now()
	act := obs.ActivityFromContext(ctx)
	// Naive-iteration driver: re-run until no table grows.
	var answers *table
	var runErr error
	for {
		if runErr = gov.Err(); runErr != nil {
			break
		}
		if runErr = gov.CheckIterations(run.pass + 1); runErr != nil {
			break
		}
		run.pass++
		run.grew = false
		if answers, runErr = run.solveTable(goal); runErr != nil {
			break
		}
		if act != nil {
			facts := int64(0)
			for _, t := range run.tables {
				facts += int64(t.answers.Len())
			}
			act.SetProgress(facts, run.lookups)
		}
		if !run.grew {
			break
		}
	}
	stats := &EvalStats{
		Engine:  e.Name(),
		Workers: 1,
		Passes:  run.pass,
		Tables:  len(run.tables),
		Lookups: run.lookups,
		Wall:    time.Since(start),
	}
	for _, t := range run.tables {
		stats.Facts += t.answers.Len()
	}
	stats.Probes = run.counters.Probes.Load()
	stats.Candidates = run.counters.Candidates.Load()
	stats.IndexBuilds = run.counters.IndexBuilds.Load()
	stats.FullScans = run.counters.FullScans.Load()
	stats.ProvEntries = e.rec.Len() - provStart
	stats.StopReason = governor.StopReason(runErr)
	if e.prof != nil {
		e.prof.SetEngine(e.Name())
		e.prof.SetWall(stats.Wall)
	}
	e.stats.Store(stats)
	evalSp.SetInt("passes", int64(run.pass))
	evalSp.SetInt("tables", int64(len(run.tables)))
	endEvalSpan(evalSp, sp, stats)
	if runErr != nil {
		return nil, &StopError{Stats: stats, Err: runErr}
	}
	// The goal's table dies with the run: its tuples are handed over.
	res = &Result{Vars: p.vars}
	answers.answers.Scan(func(tp storage.Tuple) bool {
		res.Tuples = append(res.Tuples, tp)
		return true
	})
	return res, nil
}

// callKey canonicalizes a call: predicate plus the constants at bound
// positions and the equality pattern of unbound positions. Two calls
// that differ only in variable names share a table. Variable ids are
// encoded in delimited decimal — a single '0'+id byte would collide with
// the marker and separator bytes once ids grow, and wraps at 256.
func callKey(goal term.Atom) string {
	names := make(map[term.Term]int)
	b := []byte(goal.Pred)
	for _, a := range goal.Args {
		b = append(b, 0)
		if a.IsConst() {
			b = append(b, 'c')
			b = append(b, a.String()...)
			b = strconv.AppendInt(b, int64(a.Kind()), 10)
			continue
		}
		id, ok := names[a]
		if !ok {
			id = len(names)
			names[a] = id
		}
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// solveTable returns the table for the goal's call pattern, having made
// sure it was evaluated in this pass: new answers are derived from the
// goal's rules.
func (r *topDownRun) solveTable(goal term.Atom) (*table, error) {
	key := callKey(goal)
	t, ok := r.tables[key]
	if !ok {
		if err := r.gov.CheckTableEntries(len(r.tables) + 1); err != nil {
			return nil, err
		}
		rel, err := storage.NewRelation(len(goal.Args))
		if err != nil {
			return nil, err
		}
		t = &table{answers: rel}
		t.answers.SetCounters(r.counters)
		r.tables[key] = t
	}
	if t.pass == r.pass {
		return t, nil // already evaluated (or in progress) this pass
	}
	t.pass = r.pass
	for _, rule := range r.graph[goal.Pred] {
		if err := r.solveRule(t, goal, rule); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ruleCall drives the runner of one rule resolved against one goal: its
// solutions are answers for the goal's table.
type ruleCall struct {
	*topDownRun
	t *table
}

// solveRule evaluates one rule against the goal's table. The rule is
// compiled with the goal's bindings applied and gets a runner of its own:
// a subgoal may re-enter the same rule while this body is being solved.
// The round is bracketed by the profiler; nested subgoal work (resolve
// re-entering solveTable) is attributed to the rules it evaluates, not
// this one.
func (r *topDownRun) solveRule(t *table, goal term.Atom, rule term.Rule) error {
	fresh := r.rn.RenameRule(rule)
	mgu, ok := term.Unify(goal, fresh.Head, nil)
	if !ok {
		return nil
	}
	r.prof.begin(rule)
	defer r.prof.end()
	prog := compileBody(mgu.Apply(fresh.Head), mgu.ApplyFormula(fresh.Body))
	return newRunner(rule, prog, &ruleCall{r, t}).exec()
}

// derive adds one solution's head to the goal's table.
func (c *ruleCall) derive(jr *runner) error {
	// Large joins emit many solutions between lookups; tick per
	// solution so cancellation latency stays bounded.
	if err := c.gov.Tick(); err != nil {
		return err
	}
	head, err := jr.fact()
	if err != nil {
		return err
	}
	added, err := c.t.answers.Insert(storage.Tuple(head.Args))
	if err != nil || !added {
		return err
	}
	c.grew = true
	c.prof.fresh()
	if err := c.gov.CountFacts(1); err != nil {
		return err
	}
	return recordProv(c.rec, c.gov, jr)
}

// resolve serves one body atom: EDB predicates from the store, IDB
// predicates from their (possibly still-growing) tables. The probe's
// pattern is the subgoal.
func (r *topDownRun) resolve(p *probe) error {
	r.lookups++
	r.prof.countLookup()
	if err := r.gov.Tick(); err != nil {
		return err
	}
	// With profiling on, probes are charged to the current rule's sink,
	// which chains onto the run-wide counters.
	c := r.counters
	if pc := r.prof.storageCounters(); pc != nil {
		c = pc
	}
	pred := p.st.atom.Pred
	if vr := r.virt[pred]; vr != nil {
		return p.selectFrom(vr, c, "derived")
	}
	if len(r.graph[pred]) == 0 {
		return p.selectStored(r.in.Store, nil, c)
	}
	t, err := r.solveTable(term.Atom{Pred: pred, Args: p.pattern})
	if err != nil {
		return err
	}
	// Every answer in the table is an instance of the subgoal, so none
	// needs checking against the pattern. Answer tables can hold many
	// tuples; tick per tuple (amortized) so a scan inside a big join
	// stays cancelable.
	var terr error
	t.answers.Scan(func(tp storage.Tuple) bool {
		if terr = r.gov.Tick(); terr != nil {
			return false
		}
		return p.each(tp)
	})
	if terr != nil || p.r.err != nil {
		return terr
	}
	// A predicate may also have stored facts (robustness; the kb layer
	// normally rewrites those into bodiless rules).
	return p.selectStored(r.in.Store, nil, c)
}
