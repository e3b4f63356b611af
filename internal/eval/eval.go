// Package eval implements the paper's data queries (§3.1): the
// `retrieve p where ψ` statement over a knowledge-rich database. Three
// engines are provided:
//
//   - SemiNaive: bottom-up, each recursive SCC's delta read as the window
//     of its derived tables that the previous round added. The kb layer
//     evaluates every statement with it.
//   - TopDown: goal-directed SLD resolution with naive-iteration tabling,
//     terminating on all Datalog programs.
//   - Magic: the query rewritten with adorned predicates and magic
//     filters, then evaluated semi-naively, so that bottom-up evaluation
//     only derives facts relevant to the query's bound arguments.
//
// TopDown and Magic are the goal-directed strategies the benchmark's
// ladder times on bound goals. They answer a retrieve under the governor
// and report its EvalStats, and nothing else: provenance, profiles and
// trace spans are the semi-naive engine's alone, since it is the one the
// kb layer runs. All three agree with a test-only oracle, a naive
// fixpoint over the seed's interpreter, on generated programs; retrieve
// answers are sets of bindings for the free variables of the subject.
//
// The engines differ in which rule they run when and against which
// relations; resolving a rule body is one loop they share (frame.go). A
// body is compiled once — its variables numbered into the slots of a
// frame, its atoms put in the order they will be resolved, which does not
// depend on the data — and a runner evaluates the compiled steps against
// one reused frame, asking its engine for the tuples of each ordinary
// atom and handing it each solution.
//
// What an evaluation derives it keeps in tables of its own (table.go),
// not in storage: append-only, one goroutine, gone with the statement.
// A derived fact is copied into a chunk of its predicate's table and
// costs no allocation of its own; a Result's tuples are views of those
// rows. The table shares storage's identity of a tuple and its rule for
// serving and counting a probe, so the statistics of a statement do not
// depend on where its facts are kept.
//
// Planning is split by lifetime. Whatever depends only on the IDB — its
// safety verdict, its dependency graph and SCC schedule, and every rule's
// compiled body — is a RuleSet, built by Prepare and shared by every
// statement over the same rules, and it shares the dependency graph it is
// given; the kb layer builds one per load, on the first evaluation over
// it, from the graph the load analysed. A statement then only adds its
// query predicate, defined by one rule per disjunct of its qualifier:
// §6's `where ψ1 or ψ2` read as Horn clauses, like the rest of the
// paper. buildPlan checks each rule's safety, schedules the predicate
// after the set's components as one component, and compiles its rules.
// A disjunctive statement is therefore one evaluation: the predicates
// its disjuncts share are derived once, under one governor. An Input
// without a RuleSet is prepared on the spot, per statement.
//
// The semi-naive engine then lets the statement's constants reach the
// rules they constrain (plan.demands): walking from the query rules down,
// it finds every non-recursive derived predicate that is only ever called
// with constants — the statement's, a rule's own, or a caller's carried
// through head variables — and runs each of its rules once per call the
// head admits, with the call's constants in the head's frame slots and
// the body compiled with those slots bound. A predicate called with no
// constant anywhere, or recursive, is derived in full: the call with no
// constants, which runs the body the RuleSet compiled.
//
// The subject may be an EDB predicate, an IDB predicate, or — as in the
// paper's Example 2 — a new predicate defined entirely by the qualifier.
package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"kdb/internal/depgraph"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Input is the database an engine evaluates against: stored facts plus
// IDB rules, and optionally a provider of virtual system relations.
type Input struct {
	Store *storage.Store
	Rules []term.Rule
	// Prepared optionally holds Rules analysed ahead of the statement
	// (Prepare over their dependency graph) and shared by any number of
	// them. When it is nil every statement prepares Rules itself.
	Prepared *RuleSet
	// Virtual optionally serves read-only system relations (sys_*).
	// Programs that never reference a virtual predicate evaluate
	// exactly as if the field were nil, with zero added allocations.
	Virtual Virtual
}

// Query is one retrieve statement: its subject and its qualifier, a
// disjunction of conjunctions — Where, then each of Or (§6's `where ψ1 or
// ψ2`). The query predicate has one rule per disjunct, so a statement is
// one evaluation however many disjuncts it has.
type Query struct {
	Subject term.Atom
	Where   term.Formula
	Or      []term.Formula
}

// Result is the extensional answer to a retrieve: one binding tuple per
// derived instantiation of the subject's free variables, duplicate-free,
// in derivation order.
type Result struct {
	// Vars are the free variables of the subject, in order of occurrence.
	Vars []term.Term
	// Tuples are the bindings, parallel to Vars: views of the rows of the
	// evaluation's query table, each clipped to its length, so appending
	// to one copies it. They are the result's own: nothing else of the
	// evaluation outlives it, and no later statement reuses their memory.
	Tuples []storage.Tuple
}

// Atoms renders the result as instantiated subject atoms: each argument
// that is one of Vars is taken from the tuple, every other stays as the
// subject has it.
func (r *Result) Atoms(subject term.Atom) []term.Atom {
	from := make([]int, len(subject.Args)) // the tuple position per argument, -1 for none
	for pos, t := range subject.Args {
		from[pos] = -1
		if t.IsVar() {
			from[pos] = slices.Index(r.Vars, t)
		}
	}
	out := make([]term.Atom, len(r.Tuples))
	args := make([]term.Term, len(r.Tuples)*len(subject.Args))
	for i, t := range r.Tuples {
		a := args[i*len(from) : (i+1)*len(from) : (i+1)*len(from)]
		for pos, j := range from {
			if a[pos] = subject.Args[pos]; j >= 0 {
				a[pos] = t[j]
			}
		}
		out[i] = term.Atom{Pred: subject.Pred, Args: a}
	}
	return out
}

// Sorted returns the binding tuples in a deterministic total order.
func (r *Result) Sorted() []storage.Tuple {
	out := make([]storage.Tuple, len(r.Tuples))
	copy(out, r.Tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Strings renders the sorted binding tuples, for tests and display.
func (r *Result) Strings() []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Sorted() {
		parts := make([]string, len(t))
		for i, x := range t {
			parts[i] = x.String()
		}
		out = append(out, strings.Join(parts, ", "))
	}
	return out
}

// Engine evaluates retrieve queries.
type Engine interface {
	// Name identifies the evaluation strategy.
	Name() string
	// RetrieveContext evaluates one query under the context and the
	// engine's configured limits (WithLimits). Cancellation, deadline
	// expiry, and limit breaches stop the evaluation promptly and
	// return a *StopError wrapping the structured breach; an internal
	// panic is contained and surfaces as a *governor.PanicError.
	RetrieveContext(ctx context.Context, q Query) (*Result, error)
}

// queryPredName is the reserved head predicate of the internal query
// rules.
const queryPredName = "__query__"

// RuleSet is a rule set analysed for any number of statements over it:
// its safety verdict, its dependency graph, and every rule compiled. It is
// immutable once Prepare returns, apart from the bodies compiled for calls
// (bound), which only grows, so concurrent statements share one.
type RuleSet struct {
	// unsafe is the first safety violation among the rules, nil if none.
	unsafe error
	graph  *depgraph.Graph
	byHead map[string][]preparedRule
	// textCalls reports whether some rule's body calls a non-recursive
	// derived predicate with a constant of its own text: only then can a
	// statement whose query rules call none with a constant specialise.
	textCalls bool

	mu sync.Mutex
	// bound holds each rule body compiled with the head positions a call
	// fixes bound (compileBody's given), built by the first statement
	// that makes such a call and kept for every later one.
	//kdb:guarded-by mu
	bound map[boundKey]*compiled
}

// boundKey names a rule body compiled for calls fixing the given head
// positions.
type boundKey struct {
	rule  *preparedRule
	given uint64
}

// compiledFor returns pr's body compiled with the head positions in given
// bound: the body Prepare compiled when given is 0.
func (rs *RuleSet) compiledFor(pr *preparedRule, given uint64) *compiled {
	if given == 0 {
		return pr.prog
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	k := boundKey{pr, given}
	c := rs.bound[k]
	if c == nil {
		c = compileBody(pr.rule.Head, pr.rule.Body, given)
		if rs.bound == nil {
			rs.bound = make(map[boundKey]*compiled)
		}
		rs.bound[k] = c
	}
	return c
}

// preparedRule is one rule with its body compiled and the body positions
// of its recursive atoms — those in its head's SCC, which semi-naive
// evaluation resolves against the delta.
type preparedRule struct {
	rule term.Rule
	prog *compiled
	rec  []int
}

// Prepare analyses the rules of a dependency graph once for every
// statement that evaluates them, sharing the graph: pass the result as
// Input.Prepared, with the graph's rules as Input.Rules.
func Prepare(g *depgraph.Graph) *RuleSet {
	rules := g.Rules()
	rs := &RuleSet{
		unsafe: checkSafety(rules),
		graph:  g,
		byHead: make(map[string][]preparedRule),
	}
	for _, r := range rules {
		rs.byHead[r.Head.Pred] = append(rs.byHead[r.Head.Pred], prepareRule(r, rs.graph.SCC(r.Head.Pred)))
	}
	for _, r := range rules {
		rs.textCalls = rs.textCalls || rs.callsWithConstant(r.Body)
	}
	return rs
}

func prepareRule(r term.Rule, scc []string) preparedRule {
	pr := preparedRule{rule: r, prog: compileBody(r.Head, r.Body, 0)}
	for i, a := range r.Body {
		if slices.Contains(scc, a.Pred) {
			pr.rec = append(pr.rec, i)
		}
	}
	return pr
}

// recursive reports whether pred's component needs a fixpoint: one of
// its rules has a body atom in pred's SCC.
func (rs *RuleSet) recursive(pred string) bool {
	return slices.ContainsFunc(rs.byHead[pred], func(pr preparedRule) bool { return len(pr.rec) > 0 })
}

// specialisable reports whether a call of pred can be run for its
// constants alone: pred has rules and is not recursive.
func (rs *RuleSet) specialisable(pred string) bool {
	return len(rs.byHead[pred]) > 0 && !rs.recursive(pred)
}

// callsWithConstant reports whether the body calls a specialisable
// predicate with a constant argument.
func (rs *RuleSet) callsWithConstant(body []term.Atom) bool {
	return slices.ContainsFunc(body, func(a term.Atom) bool {
		return !term.IsComparison(a) && slices.ContainsFunc(a.Args, term.Term.IsConst) && rs.specialisable(a.Pred)
	})
}

// queryComponent is the query rules' SCC: nothing in a rule set depends
// on the query predicate, so it is always a component of its own, and
// the last one evaluated.
var queryComponent = []string{queryPredName}

// plan is one statement over a rule set: its query rules
// __query__(vars of subject) :- [subject,] disjunct, one per disjunct of
// the qualifier, compiled.
type plan struct {
	set *RuleSet
	// query holds the query rules, the definition of the query
	// predicate. For a qualifier of one disjunct it is backed by one, so
	// the plan allocates nothing more for it.
	query []preparedRule
	one   [1]preparedRule
	// virtual holds the per-query snapshots of every virtual predicate
	// the query rules reach; nil when they reach none. Snapshotting at
	// plan time gives one consistent read-only state to the whole
	// evaluation, on every engine.
	virtual map[string]*storage.Relation
	// calls holds, per non-recursive derived predicate that the statement
	// only ever calls with constants, those calls (see demands); a
	// predicate without an entry is derived in full. Only the bottom-up
	// engine sets it.
	calls map[string][][]term.Term
}

// buildPlan adds the statement's query rules to the input's rule set, one
// per disjunct of the qualifier. If the subject's predicate is known (it
// has rules or stored facts), the subject atom joins each body; otherwise
// the subject is a new predicate defined through the qualifier (paper
// §3.1, Example 2). The disjuncts are checked in order, each as if it
// were the statement's only one: an unsafe rule set fails every statement
// with its first violation, after the first disjunct's own `X = Y` check
// and before its query rule's safety check.
func buildPlan(in Input, q Query) (*plan, error) {
	if term.IsComparison(q.Subject) {
		return nil, fmt.Errorf("eval: the subject of retrieve cannot be a comparison")
	}
	set := in.Prepared
	if set == nil {
		set = Prepare(depgraph.New(in.Rules))
	}
	known := in.Store.Relation(q.Subject.Pred) != nil || len(set.byHead[q.Subject.Pred]) > 0 ||
		in.Virtual != nil && in.Virtual.IsVirtual(q.Subject.Pred)
	head := term.Atom{Pred: queryPredName, Args: q.Subject.Vars(nil)}
	p := &plan{set: set}
	p.query = p.one[:]
	if len(q.Or) > 0 {
		p.query = make([]preparedRule, 1+len(q.Or))
	}
	for i := range p.query {
		where := q.Where
		if i > 0 {
			where = q.Or[i-1]
		}
		for _, a := range where {
			// The paper prohibits X = Y atoms in qualifiers (§3.1).
			if a.Pred == term.PredEq && a.Args[0].IsVar() && a.Args[1].IsVar() {
				return nil, fmt.Errorf("eval: qualifier may not contain %v (variable = variable)", a)
			}
		}
		if set.unsafe != nil {
			return nil, set.unsafe
		}
		body := make(term.Formula, 0, len(where)+1)
		if known {
			body = append(body, q.Subject)
		}
		body = append(body, where...)
		rule := term.Rule{Head: head, Body: body}
		if err := checkRule(rule); err != nil {
			return nil, err
		}
		p.query[i] = prepareRule(rule, queryComponent)
	}
	virt, err := virtualSnapshots(in.Virtual, p)
	if err != nil {
		return nil, err
	}
	p.virtual = virt
	return p, nil
}

// vars are the free variables of the subject, in order of occurrence:
// the arguments of the query rules' one head.
func (p *plan) vars() []term.Term { return p.query[0].rule.Head.Args }

// rules returns the rules defining pred: the query rules for the query
// predicate, the set's own for any other.
func (p *plan) rules(pred string) []preparedRule {
	if pred == queryPredName {
		return p.query
	}
	return p.set.byHead[pred]
}

// defines reports whether pred has rules.
func (p *plan) defines(pred string) bool { return len(p.rules(pred)) > 0 }

// relevant reports whether pred can contribute to the answer: it is the
// query predicate, a predicate of a query rule's body, or one such a
// predicate depends on.
func (p *plan) relevant(pred string) bool {
	if pred == queryPredName {
		return true
	}
	for i := range p.query {
		for _, a := range p.query[i].rule.Body {
			if !term.IsComparison(a) && (a.Pred == pred || p.set.graph.DependsOn(a.Pred, pred)) {
				return true
			}
		}
	}
	return false
}

// demand is what a statement asks of one derived predicate: every fact
// (full), or only the facts matching one of its calls.
type demand struct {
	full bool
	// calls are argument lists of the predicate's arity: a constant
	// where the call fixes the argument, a variable elsewhere. None is
	// more general than another.
	calls [][]term.Term
}

// add records one call of the predicate. A call without a constant, of
// a recursive predicate, or of an arity some rule head does not have is
// a demand for everything.
func (d *demand) add(rs *RuleSet, pred string, args []term.Term) {
	if d.full {
		return
	}
	if !rs.specialisable(pred) || !slices.ContainsFunc(args, term.Term.IsConst) ||
		slices.ContainsFunc(rs.byHead[pred], func(pr preparedRule) bool { return len(pr.rule.Head.Args) != len(args) }) {
		d.full, d.calls = true, nil
		return
	}
	for _, c := range d.calls {
		if subsumes(c, args) {
			return
		}
	}
	d.calls = slices.DeleteFunc(d.calls, func(c []term.Term) bool { return subsumes(args, c) })
	d.calls = append(d.calls, args)
}

// subsumes reports whether every fact call b asks for is one call a asks
// for too: a fixes a subset of b's positions to b's constants.
func subsumes(a, b []term.Term) bool {
	for i, t := range a {
		if t.IsConst() && t != b[i] {
			return false
		}
	}
	return true
}

// demands walks the statement's rules top-down, from the query rules
// through every component in reverse dependency order, so that each
// predicate has heard from all its callers before its own rules pass
// calls on; a recursive group reached at all is walked whole, in full.
// A rule run for a call passes on, in each body atom, the constants of
// its text and the call's constants in the head variables the atom
// shares; a rule run in full passes on its text's. It returns
// the calls of every predicate not demanded in full — nil, without a
// walk, when no constant reaches a specialisable predicate.
func (p *plan) demands() map[string][][]term.Term {
	if !p.set.textCalls && !slices.ContainsFunc(p.query, func(pr preparedRule) bool { return p.set.callsWithConstant(pr.rule.Body) }) {
		return nil
	}
	dem := make(map[string]*demand)
	call := func(a term.Atom, fixed term.Subst) {
		if term.IsComparison(a) || len(p.set.byHead[a.Pred]) == 0 {
			return
		}
		d := dem[a.Pred]
		if d == nil {
			d = &demand{}
			dem[a.Pred] = d
		}
		d.add(p.set, a.Pred, fixed.Apply(a).Args)
	}
	for i := range p.query {
		for _, a := range p.query[i].rule.Body {
			call(a, nil)
		}
	}
	sccs := p.set.graph.SCCOrder()
	for i := len(sccs) - 1; i >= 0; i-- {
		scc := sccs[i]
		if len(scc) > 1 && slices.ContainsFunc(scc, func(pred string) bool { return dem[pred] != nil }) {
			// The members of a recursive group reach one another, so one
			// reached is all reached, in full: a member the walk below
			// passes before a sibling calls it must still pass its
			// rules' calls on.
			for _, pred := range scc {
				dem[pred] = &demand{full: true}
			}
		}
		for _, pred := range scc {
			d := dem[pred]
			if d == nil {
				continue // not reached
			}
			for _, pr := range p.set.byHead[pred] {
				if d.full {
					for _, a := range pr.rule.Body {
						call(a, nil)
					}
					continue
				}
				for _, args := range d.calls {
					if _, ok := admits(pr.rule.Head, args); !ok {
						continue
					}
					fixed := term.NewSubst(len(args))
					for i, c := range args {
						if h := pr.rule.Head.Args[i]; h.IsVar() && c.IsConst() {
							fixed.Bind(h, c)
						}
					}
					for _, a := range pr.rule.Body {
						call(a, fixed)
					}
				}
			}
		}
	}
	out := make(map[string][][]term.Term)
	for pred, d := range dem {
		if !d.full {
			out[pred] = d.calls
		}
	}
	return out
}

// admits reports whether a rule with this head can derive a fact the
// call asks for — each head constant equals the call's constant there,
// and a repeated head variable is not fixed to two constants — and
// returns the mask of head positions whose variable the call fixes.
func admits(head term.Atom, args []term.Term) (uint64, bool) {
	var given uint64
	for i, c := range args {
		if !c.IsConst() {
			continue
		}
		h := head.Args[i]
		if h.IsConst() {
			if h != c {
				return 0, false
			}
			continue
		}
		for j := range i {
			if head.Args[j] == h && args[j].IsConst() && args[j] != c {
				return 0, false
			}
		}
		given |= 1 << uint(i)
	}
	return given, true
}

// atPos renders " (at file:line:col)" for rules with a known source
// position, so safety errors point at the offending clause.
func atPos(r term.Rule) string {
	if !r.Pos.IsValid() {
		return ""
	}
	return fmt.Sprintf(" (at %s)", r.Pos)
}

// checkSafety returns the first violation of checkRule among the rules.
func checkSafety(rules []term.Rule) error {
	for _, r := range rules {
		if err := checkRule(r); err != nil {
			return err
		}
	}
	return nil
}

// checkRule verifies that the rule is range-restricted under the greedy
// evaluation order: all head variables and all variables of
// non-equality comparison atoms must be bound by ordinary body atoms
// (equality atoms may propagate bindings).
func checkRule(r term.Rule) error {
	bound := make(map[term.Term]bool)
	for _, a := range r.Body {
		if term.IsComparison(a) {
			continue
		}
		for _, v := range a.Vars(nil) {
			bound[v] = true
		}
	}
	// Equality atoms propagate: X = c binds X; X = Y binds either from
	// the other. Iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, a := range r.Body {
			if a.Pred != term.PredEq || len(a.Args) != 2 {
				continue
			}
			l, rr := a.Args[0], a.Args[1]
			lB := !l.IsVar() || bound[l]
			rB := !rr.IsVar() || bound[rr]
			if lB && !rB {
				bound[rr] = true
				changed = true
			}
			if rB && !lB {
				bound[l] = true
				changed = true
			}
		}
	}
	for _, v := range r.Head.Vars(nil) {
		if !bound[v] {
			return fmt.Errorf("eval: unsafe rule %v%s: head variable %v is not bound by the body", r, atPos(r), v)
		}
	}
	for _, a := range r.Body {
		if !term.IsComparison(a) || a.Pred == term.PredEq {
			continue
		}
		for _, v := range a.Vars(nil) {
			if !bound[v] {
				return fmt.Errorf("eval: unsafe rule %v%s: comparison variable %v is not bound", r, atPos(r), v)
			}
		}
	}
	return nil
}
