// Package depgraph analyzes the predicate dependency structure of a rule
// set, implementing the definitions of Section 2.1 of the paper: direct
// dependency, (transitive) dependency, recursive rules and predicates,
// linear and strongly linear recursive rules, and typedness of a rule
// with respect to a predicate. It also provides the rewrite promised by
// the paper's footnote 2 — every linear recursive rule can be rewritten
// as a strongly linear one — via rule unfolding, and the topological SCC
// order used by the bottom-up retrieve engines.
package depgraph

import (
	"fmt"
	"sort"

	"kdb/internal/term"
)

// Graph is the dependency analysis of a fixed rule set. Build one with
// New; it is immutable afterwards and safe for concurrent reads.
type Graph struct {
	rules []term.Rule

	// byHead indexes rules by head predicate.
	byHead map[string][]term.Rule
	// direct[p] is the set of predicates p directly depends on.
	direct map[string]map[string]bool
	// sccOf assigns each predicate its strongly connected component id.
	sccOf map[string]int
	// sccs lists components in reverse topological order as produced by
	// Tarjan: each component appears after the components it depends on.
	sccs [][]string
	// reach[p] is the set of predicates p (transitively) depends on.
	reach map[string]map[string]bool
	// onRecursive holds the predicates that are recursive or depend on
	// a recursive predicate (DependsOnRecursive).
	onRecursive map[string]bool
}

// New analyzes the given rules. Comparison atoms are ignored as
// dependency targets (built-ins are leaves by construction).
func New(rules []term.Rule) *Graph {
	g := &Graph{
		rules:  rules,
		byHead: make(map[string][]term.Rule),
		direct: make(map[string]map[string]bool),
		sccOf:  make(map[string]int),
		reach:  make(map[string]map[string]bool),
	}
	nodes := make(map[string]bool)
	for _, r := range rules {
		g.byHead[r.Head.Pred] = append(g.byHead[r.Head.Pred], r)
		nodes[r.Head.Pred] = true
		if g.direct[r.Head.Pred] == nil {
			g.direct[r.Head.Pred] = make(map[string]bool)
		}
		for _, a := range r.Body {
			if term.IsComparison(a) {
				continue
			}
			g.direct[r.Head.Pred][a.Pred] = true
			nodes[a.Pred] = true
		}
	}
	g.tarjan(nodes)
	g.computeReach(nodes)
	// A predicate is recursive exactly when it reaches itself: a rule of
	// p is recursive when a body predicate is p or reaches p.
	g.onRecursive = make(map[string]bool)
	for p := range nodes {
		if g.reach[p][p] {
			g.onRecursive[p] = true
			continue
		}
		for q := range g.reach[p] {
			if g.reach[q][q] {
				g.onRecursive[p] = true
				break
			}
		}
	}
	return g
}

// tarjan computes strongly connected components over the predicate graph.
func (g *Graph) tarjan(nodes map[string]bool) {
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic component order

	index := make(map[string]int, len(names))
	low := make(map[string]int, len(names))
	onStack := make(map[string]bool, len(names))
	var stack []string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		// Deterministic successor order.
		succs := make([]string, 0, len(g.direct[v]))
		for w := range g.direct[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			id := len(g.sccs)
			for _, w := range comp {
				g.sccOf[w] = id
			}
			g.sccs = append(g.sccs, comp)
		}
	}
	for _, v := range names {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
}

func (g *Graph) computeReach(nodes map[string]bool) {
	// DFS from each node; graphs here are small (tens of predicates).
	for n := range nodes {
		seen := make(map[string]bool)
		var stack []string
		for w := range g.direct[n] {
			stack = append(stack, w)
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			for w := range g.direct[v] {
				if !seen[w] {
					stack = append(stack, w)
				}
			}
		}
		g.reach[n] = seen
	}
}

// Rules returns the analysed rule set. The slice is shared with the
// graph; callers must not mutate it.
func (g *Graph) Rules() []term.Rule { return g.rules }

// RulesFor returns the rules whose head predicate is pred.
func (g *Graph) RulesFor(pred string) []term.Rule { return g.byHead[pred] }

// DependsOn reports whether p transitively depends on q (§2.1).
func (g *Graph) DependsOn(p, q string) bool { return g.reach[p][q] }

// Reach returns the set of predicates p transitively depends on. The
// returned map is shared with the graph; callers must not mutate it.
func (g *Graph) Reach(p string) map[string]bool { return g.reach[p] }

// MutuallyDependent reports whether p and q each depend on the other.
func (g *Graph) MutuallyDependent(p, q string) bool {
	return g.DependsOn(p, q) && g.DependsOn(q, p)
}

// IsRecursiveRule reports whether the rule is recursive: its head
// predicate and at least one body predicate are mutually dependent.
func (g *Graph) IsRecursiveRule(r term.Rule) bool {
	return g.recursiveOccurrences(r) > 0
}

// recursiveOccurrences counts the body atom occurrences whose predicate
// is mutually dependent with the head predicate. A body occurrence of the
// head predicate itself always counts.
func (g *Graph) recursiveOccurrences(r term.Rule) int {
	n := 0
	for _, a := range r.Body {
		if term.IsComparison(a) {
			continue
		}
		if a.Pred == r.Head.Pred || g.MutuallyDependent(r.Head.Pred, a.Pred) {
			n++
		}
	}
	return n
}

// IsLinear reports whether a recursive rule is linear: exactly one body
// occurrence is mutually recursive with the head (§2.1).
func (g *Graph) IsLinear(r term.Rule) bool { return g.recursiveOccurrences(r) == 1 }

// IsStronglyLinear reports whether a recursive rule is strongly linear:
// the head predicate occurs exactly once in the body (§2.1). A rule that
// is recursive only through mutual dependency (the head predicate absent
// from the body) is not strongly linear.
func (g *Graph) IsStronglyLinear(r term.Rule) bool {
	if !g.IsRecursiveRule(r) {
		return false
	}
	n := 0
	for _, a := range r.Body {
		if a.Pred == r.Head.Pred {
			n++
		}
	}
	return n == 1 && g.recursiveOccurrences(r) == 1
}

// IsRecursivePred reports whether the predicate heads at least one
// recursive rule (§2.1).
func (g *Graph) IsRecursivePred(p string) bool {
	for _, r := range g.byHead[p] {
		if g.IsRecursiveRule(r) {
			return true
		}
	}
	return false
}

// DependsOnRecursive reports whether the predicate is recursive or
// depends (transitively) on a recursive predicate. This is the
// precondition test of Algorithm 1: it applies only when the subject is
// NOT in this set (§4). New computes the set once.
func (g *Graph) DependsOnRecursive(p string) bool { return g.onRecursive[p] }

// SCC returns the strongly connected component containing p (sorted).
func (g *Graph) SCC(p string) []string {
	id, ok := g.sccOf[p]
	if !ok {
		return []string{p}
	}
	return g.sccs[id]
}

// SCCIndex returns the index in SCCOrder of the component containing p,
// or -1 when p is not in the graph.
func (g *Graph) SCCIndex(p string) int {
	if id, ok := g.sccOf[p]; ok {
		return id
	}
	return -1
}

// SCCOrder returns the components in dependency order: every component
// appears after the components it depends on, so a bottom-up engine can
// evaluate them front to back.
func (g *Graph) SCCOrder() [][]string { return g.sccs }

// TypedWRT reports whether the rule is typed with respect to pred: every
// variable occurs in at most one distinct position across all occurrences
// of pred in the rule, head included (§2.1). A rule containing p(X, Y)
// and p(Y, Z) is not typed with respect to p, nor is one containing
// q(X, X) typed with respect to q.
func TypedWRT(r term.Rule, pred string) bool {
	positions := make(map[term.Term]int)
	check := func(a term.Atom) bool {
		if a.Pred != pred {
			return true
		}
		for i, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if prev, ok := positions[t]; ok && prev != i {
				return false
			}
			positions[t] = i
		}
		return true
	}
	if !check(r.Head) {
		return false
	}
	for _, a := range r.Body {
		if !check(a) {
			return false
		}
	}
	return true
}

// Violation describes one way a rule set departs from the paper's
// recursion discipline (all recursive rules strongly linear and typed
// with respect to their head predicate). It implements error; Pos
// (copied from the rule) points at the offending clause when known.
type Violation struct {
	Rule   term.Rule
	Reason string
}

// Pos returns the source position of the offending rule (zero when the
// rule was built programmatically).
func (v Violation) Pos() term.Pos { return v.Rule.Pos }

// String renders the violation.
func (v Violation) String() string {
	if v.Rule.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: %s", v.Rule.Pos, v.Rule, v.Reason)
	}
	return fmt.Sprintf("%s: %s", v.Rule, v.Reason)
}

// Error renders the violation, making Violation usable as an error value.
func (v Violation) Error() string { return v.String() }

// CheckDiscipline verifies the paper's standing assumption (§2.1, end):
// every recursive IDB predicate is defined by recursive rules that are
// strongly linear and typed with respect to the head predicate. The
// returned violations are advisory — Algorithm 2's bounded mode can
// still process untyped rules of the restricted shape discussed at the
// end of §5.3.
func (g *Graph) CheckDiscipline() []Violation {
	var out []Violation
	for _, r := range g.rules {
		if !g.IsRecursiveRule(r) {
			continue
		}
		if !g.IsStronglyLinear(r) {
			out = append(out, Violation{Rule: r, Reason: "recursive rule is not strongly linear"})
		}
		if !TypedWRT(r, r.Head.Pred) {
			out = append(out, Violation{Rule: r, Reason: "recursive rule is not typed with respect to its head predicate"})
		}
	}
	return out
}

// MakeStronglyLinear rewrites linear-but-not-strongly-linear recursive
// rules into strongly linear ones by unfolding the mutually recursive
// body atom with the rules of its predicate until the head predicate
// itself appears (the paper's footnote 2). maxDepth bounds the unfolding;
// rule sets whose recursion cycles are longer fail with an error.
//
// The result is the graph of all rules, with rewritten rules replacing
// their originals; non-recursive and already-strongly-linear rules pass
// through unchanged. When no rule needed rewriting it is g itself, so a
// second graph is built only when the rewrite changed the rules.
func MakeStronglyLinear(g *Graph, maxDepth int) (*Graph, error) {
	var rn term.Renamer
	var out []term.Rule
	changed := false
	for _, r := range g.rules {
		if !g.IsRecursiveRule(r) || g.IsStronglyLinear(r) {
			out = append(out, r)
			continue
		}
		if !g.IsLinear(r) {
			return nil, fmt.Errorf("depgraph: rule %v is non-linear recursive; cannot rewrite", r)
		}
		rewritten, err := unfoldToStronglyLinear(g, r, &rn, maxDepth)
		if err != nil {
			return nil, err
		}
		out = append(out, rewritten...)
		changed = true
	}
	if !changed {
		return g, nil
	}
	return New(out), nil
}

// unfoldToStronglyLinear repeatedly unfolds the single mutually recursive
// body atom of rule r until every resulting rule either contains the head
// predicate exactly once in its body (strongly linear) or is no longer
// recursive.
func unfoldToStronglyLinear(g *Graph, r term.Rule, rn *term.Renamer, maxDepth int) ([]term.Rule, error) {
	pending := []term.Rule{r}
	var done []term.Rule
	for depth := 0; len(pending) > 0; depth++ {
		if depth > maxDepth {
			return nil, fmt.Errorf("depgraph: could not make %v strongly linear within depth %d", r, maxDepth)
		}
		var next []term.Rule
		for _, cur := range pending {
			// Find the mutually recursive body occurrences.
			idx, headOccurrences := -1, 0
			for i, a := range cur.Body {
				if term.IsComparison(a) {
					continue
				}
				if a.Pred == cur.Head.Pred {
					headOccurrences++
					if idx < 0 {
						idx = i
					}
				} else if idx < 0 && g.MutuallyDependent(cur.Head.Pred, a.Pred) {
					idx = i
				}
			}
			if headOccurrences > 1 {
				return nil, fmt.Errorf("depgraph: unfolding %v produced a non-linear rule %v", r, cur)
			}
			if idx < 0 {
				done = append(done, cur) // became non-recursive
				continue
			}
			if headOccurrences == 1 {
				done = append(done, cur) // strongly linear now
				continue
			}
			// Unfold with every rule of the occurrence's predicate.
			target := cur.Body[idx]
			defs := g.RulesFor(target.Pred)
			if len(defs) == 0 {
				return nil, fmt.Errorf("depgraph: %v depends on %s which has no rules", r, target.Pred)
			}
			for _, def := range defs {
				fresh := rn.RenameRule(def)
				mgu, ok := term.Unify(target, fresh.Head, nil)
				if !ok {
					continue
				}
				var body term.Formula
				body = append(body, cur.Body[:idx]...)
				body = append(body, fresh.Body...)
				body = append(body, cur.Body[idx+1:]...)
				next = append(next, mgu.ApplyRule(term.Rule{Head: cur.Head, Body: body}))
			}
		}
		pending = next
	}
	return done, nil
}
