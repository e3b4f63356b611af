// Package eval implements the paper's data queries (§3.1): the
// `retrieve p where ψ` statement over a knowledge-rich database. Three
// engines are provided:
//
//   - SemiNaive: bottom-up, each recursive SCC's delta read as the window
//     of its derived relations that the previous round added. The kb
//     layer evaluates every statement with it.
//   - TopDown: goal-directed SLD resolution with naive-iteration tabling,
//     terminating on all Datalog programs.
//   - Magic: the query rewritten with adorned predicates and magic
//     filters, then evaluated semi-naively, so that bottom-up evaluation
//     only derives facts relevant to the query's bound arguments.
//
// TopDown and Magic are the goal-directed strategies the benchmark's
// ladder times on bound goals. All three agree with a test-only oracle, a
// naive fixpoint over the seed's interpreter, on generated programs;
// retrieve answers are sets of bindings for the free variables of the
// subject.
//
// The engines differ in which rule they run when and against which
// relations; resolving a rule body is one loop they share (frame.go). A
// body is compiled once — its variables numbered into the slots of a
// frame, its atoms put in the order they will be resolved, which does not
// depend on the data — and a runner evaluates the compiled steps against
// one reused frame, asking its engine for the tuples of each ordinary
// atom and handing it each solution.
//
// Planning is split by lifetime. Whatever depends only on the IDB — its
// safety verdict, its dependency graph and SCC schedule, and every rule's
// compiled body — is a RuleSet, built by Prepare and shared by every
// statement over the same rules, and it shares the dependency graph it is
// given; the kb layer builds one per load, on the first evaluation over
// it, from the graph the load analysed. A statement then
// only adds its query rule: it checks that rule's safety, schedules it
// after the set's components and compiles it (buildPlan). An Input
// without a RuleSet is prepared on the spot, per statement.
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

// Query is one retrieve statement.
type Query struct {
	Subject term.Atom
	Where   term.Formula
}

// Result is the extensional answer to a retrieve: one binding tuple per
// derived instantiation of the subject's free variables, duplicate-free,
// in derivation order.
type Result struct {
	// Vars are the free variables of the subject, in order of occurrence.
	Vars []term.Term
	// Tuples are the bindings, parallel to Vars. They are the result's
	// own: no relation of the evaluation outlives it to share them.
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

// queryPredName is the reserved head predicate of the internal query rule.
const queryPredName = "__query__"

// RuleSet is a rule set analysed for any number of statements over it:
// its safety verdict, its dependency graph, and every rule compiled. It is
// immutable once Prepare returns, so concurrent statements share one.
type RuleSet struct {
	// unsafe is the first safety violation among the rules, nil if none.
	unsafe error
	graph  *depgraph.Graph
	byHead map[string][]preparedRule
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
	return rs
}

func prepareRule(r term.Rule, scc []string) preparedRule {
	pr := preparedRule{rule: r, prog: compileBody(r.Head, r.Body)}
	for i, a := range r.Body {
		if slices.Contains(scc, a.Pred) {
			pr.rec = append(pr.rec, i)
		}
	}
	return pr
}

// queryComponent is the query rule's SCC: nothing in a rule set depends
// on the query predicate, so it is always a component of its own, and
// the last one evaluated.
var queryComponent = []string{queryPredName}

// plan is one statement over a rule set: its query rule
// __query__(vars of subject) :- [subject,] where-atoms, compiled, and the
// subject's variables.
type plan struct {
	set *RuleSet
	// query holds the query rule, as the one-rule definition of the
	// query predicate.
	query [1]preparedRule
	vars  []term.Term
	// virtual holds the per-query snapshots of every virtual predicate
	// the query rule reaches; nil when it reaches none. Snapshotting at
	// plan time gives one consistent read-only state to the whole
	// evaluation, on every engine.
	virtual map[string]*storage.Relation
}

// buildPlan adds the statement's query rule to the input's rule set. If
// the subject's predicate is known (it has rules or stored facts), the
// subject atom joins the body; otherwise the subject is a new predicate
// defined through the qualifier (paper §3.1, Example 2). An unsafe rule
// set fails every statement with its first violation before the query
// rule is checked.
func buildPlan(in Input, q Query) (*plan, error) {
	if term.IsComparison(q.Subject) {
		return nil, fmt.Errorf("eval: the subject of retrieve cannot be a comparison")
	}
	for _, a := range q.Where {
		// The paper prohibits X = Y atoms in qualifiers (§3.1).
		if a.Pred == term.PredEq && a.Args[0].IsVar() && a.Args[1].IsVar() {
			return nil, fmt.Errorf("eval: qualifier may not contain %v (variable = variable)", a)
		}
	}
	set := in.Prepared
	if set == nil {
		set = Prepare(depgraph.New(in.Rules))
	}
	if set.unsafe != nil {
		return nil, set.unsafe
	}
	known := in.Store.Relation(q.Subject.Pred) != nil || len(set.byHead[q.Subject.Pred]) > 0 ||
		in.Virtual != nil && in.Virtual.IsVirtual(q.Subject.Pred)
	vars := q.Subject.Vars(nil)
	body := make(term.Formula, 0, len(q.Where)+1)
	if known {
		body = append(body, q.Subject)
	}
	body = append(body, q.Where...)
	rule := term.Rule{Head: term.NewAtom(queryPredName, vars...), Body: body}
	if err := checkRule(rule); err != nil {
		return nil, err
	}
	p := &plan{set: set, vars: vars}
	p.query[0] = prepareRule(rule, queryComponent)
	virt, err := virtualSnapshots(in.Virtual, p)
	if err != nil {
		return nil, err
	}
	p.virtual = virt
	return p, nil
}

// rule is the statement's query rule.
func (p *plan) rule() term.Rule { return p.query[0].rule }

// rules returns the rules defining pred: the query rule for the query
// predicate, the set's own for any other.
func (p *plan) rules(pred string) []preparedRule {
	if pred == queryPredName {
		return p.query[:]
	}
	return p.set.byHead[pred]
}

// defines reports whether pred has rules.
func (p *plan) defines(pred string) bool { return len(p.rules(pred)) > 0 }

// relevant reports whether pred can contribute to the answer: it is the
// query predicate, a predicate of the query rule's body, or one such a
// predicate depends on.
func (p *plan) relevant(pred string) bool {
	if pred == queryPredName {
		return true
	}
	for _, a := range p.rule().Body {
		if !term.IsComparison(a) && (a.Pred == pred || p.set.graph.DependsOn(a.Pred, pred)) {
			return true
		}
	}
	return false
}

// CheckSafety verifies that every rule is range-restricted (evaluable by
// the engines): all head variables and all variables of non-equality
// comparisons must be bound by ordinary body atoms, with equality atoms
// propagating bindings. It returns the first violation.
func CheckSafety(rules []term.Rule) error { return checkSafety(rules) }

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
