package eval

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"kdb/internal/governor"
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
	stats  atomic.Pointer[EvalStats]
}

// NewTopDown returns the tabled top-down engine. It honors WithLimits
// only: provenance and profiles are the semi-naive engine's alone.
func NewTopDown(in Input, opts ...EngineOption) Engine {
	return &topDown{in: in, limits: buildConfig(opts).limits}
}

// Name identifies the engine.
func (e *topDown) Name() string { return "topdown" }

// LastStats returns the statistics of the most recent RetrieveContext.
func (e *topDown) LastStats() *EvalStats { return e.stats.Load() }

// answerTable holds the answers derived so far for one call pattern.
type answerTable struct {
	answers *table
	// pass is the last pass in which this table's rules were (or are
	// being) evaluated, so that a pass does not re-enter them.
	pass int
}

type topDownRun struct {
	in   Input
	plan *plan
	rn   term.Renamer
	gov  *governor.Governor

	tables   map[string]*answerTable
	pass     int
	grew     bool
	counters *storage.Counters
	lookups  int64
}

// RetrieveContext evaluates the query goal-directed under the governor:
// the naive-iteration driver checks cancellation and the pass budget
// between passes, every lookup performs an amortized check, and answer
// insertion is bounded by MaxFacts.
func (e *topDown) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, e.limits)
	defer cancel()
	p, err := buildPlan(e.in, q, false)
	if err != nil {
		return nil, err
	}
	// The counters are private to this query and threaded through every
	// stored-relation probe, so concurrent queries stay independent.
	run := &topDownRun{
		in:       e.in,
		plan:     p,
		gov:      gov,
		tables:   make(map[string]*answerTable),
		counters: &storage.Counters{},
	}
	goal := p.query[0].rule.Head // the query rules' one head
	start := time.Now()
	// Naive-iteration driver: re-run until no table grows.
	var answers *answerTable
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
		if answers, runErr = run.solvePass(goal); runErr != nil {
			break
		}
		if !run.grew {
			break
		}
	}
	stats := &EvalStats{
		Engine:  e.Name(),
		Passes:  run.pass,
		Tables:  len(run.tables),
		Lookups: run.lookups,
	}
	for _, t := range run.tables {
		stats.Facts += t.answers.n
	}
	finishStats(stats, start, run.counters, nil, runErr)
	e.stats.Store(stats)
	if runErr != nil {
		return nil, &StopError{Stats: stats, Err: runErr}
	}
	// The goal's table dies with the run: its rows are handed over.
	return &Result{Vars: p.vars(), Tuples: answers.answers.rows()}, nil
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

// solvePass runs one pass of the driver from the query goal. A panic
// inside it is contained here, so the stop is recorded like any other.
func (r *topDownRun) solvePass(goal term.Atom) (t *answerTable, err error) {
	defer governor.Recover(&err)
	return r.solveTable(goal)
}

// solveTable returns the table for the goal's call pattern, having made
// sure it was evaluated in this pass: new answers are derived from the
// goal's rules.
func (r *topDownRun) solveTable(goal term.Atom) (*answerTable, error) {
	key := callKey(goal)
	t, ok := r.tables[key]
	if !ok {
		answers, err := newTable(len(goal.Args))
		if err != nil {
			return nil, err
		}
		t = &answerTable{answers: answers}
		r.tables[key] = t
	}
	if t.pass == r.pass {
		return t, nil // already evaluated (or in progress) this pass
	}
	t.pass = r.pass
	rules := r.plan.rules(goal.Pred)
	for i := range rules {
		if err := r.solveRule(t, goal, rules[i].rule); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ruleCall drives the runner of one rule resolved against one goal: its
// solutions are answers for the goal's table.
type ruleCall struct {
	*topDownRun
	t *answerTable
}

// solveRule evaluates one rule against the goal's table. The rule is
// compiled with the goal's bindings applied and gets a runner of its own:
// a subgoal may re-enter the same rule while this body is being solved.
func (r *topDownRun) solveRule(t *answerTable, goal term.Atom, rule term.Rule) error {
	fresh := r.rn.RenameRule(rule)
	mgu, ok := term.Unify(goal, fresh.Head, nil)
	if !ok {
		return nil
	}
	prog := compileBody(mgu.Apply(fresh.Head), mgu.ApplyFormula(fresh.Body), nil, 0, false)
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
	added, err := c.t.answers.insert(head.Args)
	if err != nil || !added {
		return err
	}
	c.grew = true
	return c.gov.CountFacts(1)
}

// resolve serves one body atom: EDB predicates from the store, IDB
// predicates from their (possibly still-growing) tables. The probe's
// pattern is the subgoal.
func (r *topDownRun) resolve(p *probe) error {
	r.lookups++
	if err := r.gov.Tick(); err != nil {
		return err
	}
	pred := p.st.atom.Pred
	if vr := r.plan.virtual[pred]; vr != nil {
		return p.selectFrom(vr, r.counters, "derived")
	}
	if !r.plan.defines(pred) {
		return p.selectStored(r.in.Store, nil, r.counters)
	}
	t, err := r.solveTable(term.Atom{Pred: pred, Args: p.pattern})
	if err != nil {
		return err
	}
	// Every answer in the table is an instance of the subgoal, so none
	// needs checking against the pattern. Answer tables can hold many
	// tuples; tick per tuple (amortized) so a scan inside a big join
	// stays cancelable. The scan never sees answers a nested call adds
	// to this table while it runs.
	var terr error
	t.answers.scan(func(tp storage.Tuple) bool {
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
	return p.selectStored(r.in.Store, nil, r.counters)
}
