// Package eval implements the paper's data queries (§3.1): the
// `retrieve p where ψ` statement over a knowledge-rich database. Four
// interchangeable engines are provided:
//
//   - Naive: bottom-up naive fixpoint — the correctness baseline.
//   - SemiNaive: bottom-up with delta relations per recursive SCC — the
//     production engine.
//   - TopDown: goal-directed SLD resolution with naive-iteration tabling,
//     terminating on all Datalog programs.
//   - Magic: the query rewritten with adorned predicates and magic
//     filters, then evaluated semi-naively, so that bottom-up evaluation
//     only derives facts relevant to the query's bound arguments.
//
// All four agree on every program (checked against a test-only oracle on
// generated programs); retrieve answers are sets of bindings for the free
// variables of the subject.
//
// The engines differ in which rule they run when and against which
// relations; resolving a rule body is one loop they share (frame.go). A
// body is compiled once per use — its variables numbered into the slots
// of a frame, its atoms put in the order they will be resolved, which
// does not depend on the data — and a runner evaluates the compiled steps
// against one reused frame, asking its engine for the tuples of each
// ordinary atom and handing it each solution.
//
// The subject may be an EDB predicate, an IDB predicate, or — as in the
// paper's Example 2 — a new predicate defined entirely by the qualifier.
package eval

import (
	"context"
	"fmt"
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

// Atoms renders the result as instantiated subject atoms.
func (r *Result) Atoms(subject term.Atom) []term.Atom {
	out := make([]term.Atom, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		s := term.NewSubst(len(r.Vars))
		for i, v := range r.Vars {
			s[v] = t[i]
		}
		out = append(out, s.Apply(subject))
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
	// Retrieve evaluates one query to completion, ungoverned.
	Retrieve(q Query) (*Result, error)
	// RetrieveContext evaluates one query under the context and the
	// engine's configured limits (WithLimits). Cancellation, deadline
	// expiry, and limit breaches stop the evaluation promptly and
	// return a *StopError wrapping the structured breach; an internal
	// panic is contained and surfaces as a *governor.PanicError.
	RetrieveContext(ctx context.Context, q Query) (*Result, error)
}

// queryPredName is the reserved head predicate of the internal query rule.
const queryPredName = "__query__"

// plan is the preprocessed form of a query shared by all engines: a query
// rule __query__(vars of subject) :- [subject,] where-atoms, the rule set
// extended with it, and the dependency graph.
type plan struct {
	rule  term.Rule
	vars  []term.Term
	rules []term.Rule
	graph *depgraph.Graph
	// virtual holds the per-query snapshots of every virtual predicate
	// the program references; nil when the program references none.
	// Snapshotting at plan time gives one consistent read-only state to
	// the whole evaluation, on every engine.
	virtual map[string]*storage.Relation
}

// buildPlan constructs and safety-checks the internal query rule. If the
// subject's predicate is known (it has rules or stored facts), the
// subject atom joins the body; otherwise the subject is a new predicate
// defined through the qualifier (paper §3.1, Example 2).
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
	known := in.Store.Relation(q.Subject.Pred) != nil
	if !known && in.Virtual != nil && in.Virtual.IsVirtual(q.Subject.Pred) {
		known = true
	}
	if !known {
		for _, r := range in.Rules {
			if r.Head.Pred == q.Subject.Pred {
				known = true
				break
			}
		}
	}
	vars := q.Subject.Vars(nil)
	var body term.Formula
	if known {
		body = append(body, q.Subject)
	}
	body = append(body, q.Where...)
	rule := term.Rule{Head: term.NewAtom(queryPredName, vars...), Body: body}
	rules := make([]term.Rule, 0, len(in.Rules)+1)
	rules = append(rules, in.Rules...)
	rules = append(rules, rule)
	if err := checkSafety(rules); err != nil {
		return nil, err
	}
	virt, err := virtualSnapshots(in.Virtual, rules)
	if err != nil {
		return nil, err
	}
	return &plan{
		rule:    rule,
		vars:    vars,
		rules:   rules,
		graph:   depgraph.New(rules),
		virtual: virt,
	}, nil
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

// checkSafety verifies that every rule is range-restricted under the
// greedy evaluation order: all head variables and all variables of
// non-equality comparison atoms must be bound by ordinary body atoms
// (equality atoms may propagate bindings).
func checkSafety(rules []term.Rule) error {
	for _, r := range rules {
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
	}
	return nil
}

// relevantPreds returns the predicates reachable from the query rule,
// including the query predicate itself.
func (p *plan) relevantPreds() map[string]bool {
	out := map[string]bool{queryPredName: true}
	for _, a := range p.rule.Body {
		if term.IsComparison(a) {
			continue
		}
		out[a.Pred] = true
		for q := range p.graphReach(a.Pred) {
			out[q] = true
		}
	}
	return out
}

func (p *plan) graphReach(pred string) map[string]bool {
	reach := make(map[string]bool)
	var stack []string
	stack = append(stack, pred)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range p.graph.RulesFor(v) {
			for _, a := range r.Body {
				if term.IsComparison(a) || reach[a.Pred] {
					continue
				}
				reach[a.Pred] = true
				stack = append(stack, a.Pred)
			}
		}
	}
	return reach
}
