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
// costs no allocation of its own. The table shares storage's identity of
// a tuple and its rule for serving and counting a probe, so the
// statistics of a statement do not depend on where its facts are kept.
// A Result's tuples are views of rows. The query predicate's table keeps
// a member set only when an answer can repeat (several disjuncts, or a
// body variable that is no answer variable); an identity statement
// (`retrieve path(X, Y).`) keeps no table and hands over the rows it
// matched, the subject's derived rows and stored tuples.
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
// The semi-naive engine derives a non-recursive predicate only for the
// values its callers bind, constants or earlier atoms' (sideways): the
// caller's prefix up to the call fills the callee's call table for that
// mask of bound positions, the callee's rules, compiled for the mask,
// run for its new rows, and the caller's body then joins their answers
// (component.fire). A predicate some call binds nothing of, recursive or
// called by a recursive component is derived in full (plan.sideways).
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
	// Tuples are the bindings, parallel to Vars: views of the rows the
	// evaluation derived or matched (see the package doc), each clipped to
	// its length, so appending to one copies it. They are read-only, as a
	// stored tuple never changes, and no later statement reuses their memory.
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
	// sideways reports whether some rule calls a specialisable predicate.
	sideways bool

	mu sync.Mutex
	// bound holds rule bodies compiled for the sideways plan under a mask
	// (compileBody's rs and mask), built by the first statement that
	// makes such a call and kept for every later one.
	//kdb:guarded-by mu
	bound map[boundKey]*compiled
}

// boundKey names a rule body compiled for calls binding the mask's head
// positions.
type boundKey struct {
	rule *preparedRule
	mask uint64
	join bool
}

// compiledFor returns pr's body as the sideways plan runs it for calls
// binding mask's head positions: Prepare's when pr is run in full and
// does not defer.
func (rs *RuleSet) compiledFor(pr *preparedRule, mask uint64, join bool) *compiled {
	if mask == 0 && !pr.defers {
		return pr.prog
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	k := boundKey{pr, mask, join}
	c := rs.bound[k]
	if c == nil {
		c = compileBody(pr.rule.Head, pr.rule.Body, rs, mask, join)
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
	// defers marks a non-recursive rule of the set whose body calls a
	// specialisable predicate: its sideways plan orders the body anew.
	defers bool
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
		rs.byHead[r.Head.Pred] = append(rs.byHead[r.Head.Pred], prepareRule(r, rs.graph.SCC(r.Head.Pred), nil))
	}
	for _, prs := range rs.byHead {
		for i := range prs {
			pr := &prs[i]
			pr.defers = !rs.recursive(pr.rule.Head.Pred) && slices.ContainsFunc(pr.rule.Body, rs.callsSpecialisable)
			rs.sideways = rs.sideways || pr.defers
		}
	}
	return rs
}

// prepareRule compiles r, for rs's sideways plan when rs is not nil.
func prepareRule(r term.Rule, scc []string, rs *RuleSet) preparedRule {
	pr := preparedRule{rule: r, prog: compileBody(r.Head, r.Body, rs, 0, false)}
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

// callsSpecialisable reports whether a is an atom of a specialisable
// predicate.
func (rs *RuleSet) callsSpecialisable(a term.Atom) bool {
	return !term.IsComparison(a) && rs.specialisable(a.Pred)
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
	// callees are the specialised predicates, one per mask (sideways);
	// any other is derived in full. Only the bottom-up engine sets them.
	callees []callee
}

// buildPlan adds the statement's query rules to the input's rule set, one
// per disjunct of the qualifier. If the subject's predicate is known (it
// has rules or stored facts), the subject atom joins each body; otherwise
// the subject is a new predicate defined through the qualifier (paper
// §3.1, Example 2). The disjuncts are checked in order, each as if it
// were the statement's only one: an unsafe rule set fails every statement
// with its first violation, before its query rule's safety check. What
// the statement may say — arities, §3.1's ban on `X = Y`, a subject that
// is no comparison — is the caller's to check (kb checks every statement
// before it plans one). With sideways the query rules are compiled for
// the rule set's sideways plan.
func buildPlan(in Input, q Query, sideways bool) (*plan, error) {
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
		var rs *RuleSet
		if sideways {
			rs = set
		}
		p.query[i] = prepareRule(rule, queryComponent, rs)
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

// callee returns the callee of the call table named table, nil for none.
func (p *plan) callee(table string) *callee {
	for i := range p.callees {
		if p.callees[i].table == table {
			return &p.callees[i]
		}
	}
	return nil
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

// callee is a specialised predicate under one mask: every call of it
// binds an argument and none is a recursive component's. Its rules,
// compiled for the mask, run for its call table's new rows when a caller
// needs their answers.
type callee struct {
	call     // the first call found: pred, mask and the call table's name
	idx  int // pred's component in the schedule
	// Run time: the call table, pred's component evaluated for the mask,
	// whose one window is the table's new rows, and its rules.
	calls *table
	comp  component
	win   [1]window
	rules []componentRule
}

// sideways walks the statement's calls from the query rules through the
// components in reverse dependency order, so a predicate hears from all
// its callers before its rules, compiled for each of its masks, pass
// their calls on. A call binding nothing, of an arity over 63 or unlike
// a rule head's, or made by a recursive component derives its predicate
// in full. It sets p.callees, one per mask of each other predicate called
// — none, without a walk, when no call can bind an argument.
func (p *plan) sideways() {
	if !p.set.sideways && !slices.ContainsFunc(p.query, func(pr preparedRule) bool {
		return slices.ContainsFunc(pr.prog.calls, func(cl call) bool { return cl.table != "" })
	}) {
		return
	}
	sccs := p.set.graph.SCCOrder()
	var fullBuf [256]bool
	var callBuf [8]call
	full, calls := append(fullBuf[:0], make([]bool, len(sccs))...), callBuf[:0] // calls: one per predicate and mask
	add := func(cl call) {
		i := p.set.graph.SCCIndex(cl.pred)
		switch {
		case full[i]:
		case cl.table == "" || cl.arity > 63 || slices.ContainsFunc(p.set.byHead[cl.pred], func(pr preparedRule) bool { return len(pr.rule.Head.Args) != cl.arity }):
			full[i] = true
		case !slices.ContainsFunc(calls, func(c call) bool { return c.pred == cl.pred && c.mask == cl.mask }):
			calls = append(calls, cl)
		}
	}
	for i := range p.query {
		for _, cl := range p.query[i].prog.calls {
			add(cl)
		}
	}
	for i := len(sccs) - 1; i >= 0; i-- {
		for _, pred := range sccs[i] {
			prs := p.set.byHead[pred]
			for j := range prs {
				switch {
				case p.set.recursive(pred) && !p.relevant(pred):
				case p.set.recursive(pred):
					for _, a := range prs[j].rule.Body {
						if p.set.callsSpecialisable(a) {
							add(call{pred: a.Pred, arity: len(a.Args)})
						}
					}
				case full[i]:
					for _, cl := range p.set.compiledFor(&prs[j], 0, false).calls {
						add(cl)
					}
				default:
					for _, c := range calls { // what this adds is pred's callees'
						if c.pred == pred {
							for _, cl := range p.set.compiledFor(&prs[j], c.mask, false).calls {
								add(cl)
							}
						}
					}
				}
			}
		}
	}
	for _, c := range calls {
		if i := p.set.graph.SCCIndex(c.pred); !full[i] {
			p.callees = append(p.callees, callee{call: c, idx: i})
		}
	}
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

// checkRule verifies that the rule is range-restricted (term.Unbound).
// The error points at the clause when its source position is known.
func checkRule(r term.Rule) error {
	v, inHead, unsafe := term.Unbound(r.Head, r.Body)
	if !unsafe {
		return nil
	}
	var at string
	if r.Pos.IsValid() {
		at = fmt.Sprintf(" (at %s)", r.Pos)
	}
	if inHead {
		return fmt.Errorf("eval: unsafe rule %v%s: head variable %v is not bound by the body", r, at, v)
	}
	return fmt.Errorf("eval: unsafe rule %v%s: comparison variable %v is not bound", r, at, v)
}
