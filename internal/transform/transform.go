// Package transform implements the rule transformation of Section 5.2 of
// the paper (due to Imielinski), which restructures strongly linear,
// typed recursive rules so that Algorithm 2 can bound their application:
//
// For a recursive predicate p with recursive rules C = {r_1 … r_k}, let
// w_i be the body of r_i without the p occurrence, and let α be the set
// of argument positions of p (in head or body occurrence) whose variables
// are shared with some w_i. With m = |α|, a fresh "step" predicate t of
// arity 2m replaces C with:
//
//	rT:  p(…Z at α, X elsewhere…) ← p(X_1,…,X_n) ∧ t(X_α, Z_α)
//	rI:  t(A_α, C_α) ← w_i             (one per recursive rule)
//	rC:  t(X̄, Z̄) ← t(X̄, Ȳ) ∧ t(Ȳ, Z̄)
//
// where A_α are the body-occurrence arguments of p at positions α and
// C_α the head-occurrence arguments. The transformation preserves the
// extension of p.
//
// The package also implements the paper's *modified* transformation
// (§5.3): when the initialization rules are variants of p's own
// non-recursive rules under a single position permutation, the artificial
// predicate is avoided altogether and t-atoms can be rendered as p-atoms
// — yielding the paper's preferred answer to Example 6.
package transform

import (
	"fmt"
	"sort"

	"kdb/internal/depgraph"
	"kdb/internal/term"
)

// RuleKind classifies rules in a transformed program for Algorithm 2's
// tagging discipline.
type RuleKind uint8

// Rule kinds.
const (
	// KindOrdinary is any rule the transformation did not introduce.
	KindOrdinary RuleKind = iota
	// KindRT is a transformation rule p ← p ∧ t.
	KindRT
	// KindRI is an initialization rule t ← w_i.
	KindRI
	// KindRC is the continuation rule t ← t ∧ t.
	KindRC
)

// String names the kind.
func (k RuleKind) String() string {
	switch k {
	case KindOrdinary:
		return "ordinary"
	case KindRT:
		return "rT"
	case KindRI:
		return "rI"
	case KindRC:
		return "rC"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Transformed records the transformation of one recursive predicate.
type Transformed struct {
	// Pred is the recursive predicate.
	Pred string
	// StepPred is the artificial predicate's name (Pred + "_step").
	StepPred string
	// Alpha holds the 0-based shared positions, sorted.
	Alpha []int
	// RT, RIs, RC are the produced rules.
	RT  term.Rule
	RIs []term.Rule
	RC  term.Rule
	// StepToPred, when non-nil, witnesses the modified transformation: it
	// maps each argument position of StepPred to an argument position of
	// Pred, such that t(a_1,…,a_2m) ≡ p(…) with a_j at position
	// StepToPred[j]. Answers may then be rendered without the artificial
	// predicate (§5.3).
	StepToPred []int
}

// Result is the outcome of transforming a rule set.
type Result struct {
	// Rules is the full transformed rule set.
	Rules []term.Rule
	// ByPred indexes the per-predicate transformations.
	ByPred map[string]*Transformed
	// Untyped lists recursive rules that violate the strong-linearity or
	// typedness discipline; they are kept verbatim in Rules and must be
	// handled by Algorithm 2's bounded mode (§5.3, end).
	Untyped []term.Rule
	// Degenerate maps each disciplined recursive predicate the
	// transformation cannot apply to (degenerate recursion) to why. Its
	// rules are kept verbatim in Rules; nil when there is none.
	Degenerate map[string]error

	kinds map[string]RuleKind // rule key → kind
	steps map[string]*Transformed
}

// Kind classifies a rule of the transformed set.
func (res *Result) Kind(r term.Rule) RuleKind {
	if k, ok := res.kinds[r.Key()]; ok {
		return k
	}
	return KindOrdinary
}

// IsStepPred reports whether pred is an artificial step predicate and, if
// so, returns its transformation record.
func (res *Result) IsStepPred(pred string) (*Transformed, bool) {
	tr, ok := res.steps[pred]
	return tr, ok
}

// IsUntypedRule reports whether the rule was exempted from the
// transformation for violating the discipline.
func (res *Result) IsUntypedRule(r term.Rule) bool {
	key := r.Key()
	for _, u := range res.Untyped {
		if u.Key() == key {
			return true
		}
	}
	return false
}

// Apply transforms the rule set: Of over a graph of its own, failing
// with the first degenerate predicate's error. It is kept for the
// benchmark harness (bench/), which pins it until ROADMAP item 1(c).
func Apply(rules []term.Rule) (*Result, error) {
	res, err := Of(depgraph.New(rules))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Of transforms every disciplined recursive predicate of the graph's
// rules. Recursive rules that are not strongly linear or not typed are
// left in place and reported in Result.Untyped. Mutually recursive
// predicates are first rewritten to direct recursion via
// depgraph.MakeStronglyLinear when possible. A predicate whose
// transformation is degenerate is recorded in Result.Degenerate, and the
// error is the first such failure in rule order: a Result that comes with
// an error serves the diagnostics, not Algorithm 2.
func Of(g *depgraph.Graph) (*Result, error) {
	// Best-effort strong-linearization of linear mutual recursion
	// (footnote 2). If it fails (non-linear recursion), keep the original
	// rules; they will land in Untyped.
	if lin, err := depgraph.MakeStronglyLinear(g, 8); err == nil {
		g = lin
	}
	rules := g.Rules()
	res := &Result{
		ByPred: make(map[string]*Transformed),
		kinds:  make(map[string]RuleKind),
		steps:  make(map[string]*Transformed),
	}

	// Group rules: per recursive predicate, split recursive/non-recursive.
	recByPred := make(map[string][]term.Rule)
	var order []string
	for _, r := range rules {
		if g.IsRecursiveRule(r) {
			if g.IsStronglyLinear(r) && depgraph.TypedWRT(r, r.Head.Pred) {
				if _, seen := recByPred[r.Head.Pred]; !seen {
					order = append(order, r.Head.Pred)
				}
				recByPred[r.Head.Pred] = append(recByPred[r.Head.Pred], r)
			} else {
				res.Untyped = append(res.Untyped, r)
			}
		}
	}
	// If a predicate has both disciplined and undisciplined recursive
	// rules, exempt the whole predicate: mixing the transformation with
	// bounded raw recursion would change its meaning.
	for _, r := range res.Untyped {
		if _, ok := recByPred[r.Head.Pred]; ok {
			res.Untyped = append(res.Untyped, recByPred[r.Head.Pred]...)
			delete(recByPred, r.Head.Pred)
		}
	}

	var first error
	transformed := make(map[string]bool)
	for _, pred := range order {
		recRules, ok := recByPred[pred]
		if !ok {
			continue
		}
		var nonRec []term.Rule
		for _, r := range g.RulesFor(pred) {
			if !g.IsRecursiveRule(r) {
				nonRec = append(nonRec, r)
			}
		}
		tr, err := transformPred(pred, recRules, nonRec)
		if err != nil {
			if res.Degenerate == nil {
				res.Degenerate = make(map[string]error)
				first = err
			}
			res.Degenerate[pred] = err
			continue
		}
		res.ByPred[pred] = tr
		res.steps[tr.StepPred] = tr
		transformed[pred] = true
	}

	// Assemble the output rule set: originals minus replaced recursive
	// rules, plus the new rules.
	for _, r := range rules {
		if transformed[r.Head.Pred] && g.IsRecursiveRule(r) && !res.IsUntypedRule(r) {
			continue
		}
		res.Rules = append(res.Rules, r)
	}
	for _, pred := range order {
		tr, ok := res.ByPred[pred]
		if !ok {
			continue
		}
		res.Rules = append(res.Rules, tr.RT)
		res.kinds[tr.RT.Key()] = KindRT
		for _, ri := range tr.RIs {
			res.Rules = append(res.Rules, ri)
			res.kinds[ri.Key()] = KindRI
		}
		res.Rules = append(res.Rules, tr.RC)
		res.kinds[tr.RC.Key()] = KindRC
	}
	return res, first
}

// transformPred builds rT, rI and rC for one predicate.
func transformPred(pred string, recRules, nonRec []term.Rule) (*Transformed, error) {
	n := recRules[0].Head.Arity()
	stepPred := pred + "_step"

	// decompose each rule: body occurrence of p, and w (rest of the body).
	type decomposed struct {
		head, rec term.Atom
		w         term.Formula
	}
	decs := make([]decomposed, len(recRules))
	for i, r := range recRules {
		idx := -1
		for j, a := range r.Body {
			if a.Pred == pred {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("transform: rule %v is not strongly linear", r)
		}
		if r.Head.Arity() != n || r.Body[idx].Arity() != n {
			return nil, fmt.Errorf("transform: predicate %s is used with conflicting arities", pred)
		}
		var w term.Formula
		w = append(w, r.Body[:idx]...)
		w = append(w, r.Body[idx+1:]...)
		decs[i] = decomposed{head: r.Head, rec: r.Body[idx], w: w}
	}

	// α: positions of p (head or body occurrence) whose variables are
	// shared with w, plus positions where head and body occurrence
	// disagree (generalization keeping the rewrite meaning-preserving for
	// rules that move constants or rename pass-through variables).
	alphaSet := make(map[int]bool)
	for _, d := range decs {
		wVars := make(map[term.Term]bool)
		for _, v := range d.w.Vars() {
			wVars[v] = true
		}
		for j := 0; j < n; j++ {
			h, b := d.head.Args[j], d.rec.Args[j]
			if (h.IsVar() && wVars[h]) || (b.IsVar() && wVars[b]) || h != b {
				alphaSet[j] = true
			}
		}
	}
	alpha := make([]int, 0, len(alphaSet))
	for j := range alphaSet {
		alpha = append(alpha, j)
	}
	sort.Ints(alpha)
	m := len(alpha)
	if m == 0 {
		return nil, fmt.Errorf("transform: predicate %s has no shared positions; recursive rules are degenerate", pred)
	}

	// rT: p(…) ← p(X_1,…,X_n) ∧ t(X_α, Z_α).
	xs := make([]term.Term, n)
	for j := 0; j < n; j++ {
		xs[j] = term.Var(fmt.Sprintf("X%d", j+1))
	}
	headArgs := make([]term.Term, n)
	copy(headArgs, xs)
	tArgs := make([]term.Term, 0, 2*m)
	for _, j := range alpha {
		tArgs = append(tArgs, xs[j])
	}
	for _, j := range alpha {
		z := term.Var(fmt.Sprintf("Z%d", j+1))
		headArgs[j] = z
		tArgs = append(tArgs, z)
	}
	rt := term.Rule{
		Head: term.NewAtom(pred, headArgs...),
		Body: term.Formula{term.NewAtom(pred, xs...), term.NewAtom(stepPred, tArgs...)},
	}

	// rI per recursive rule: t(A_α, C_α) ← w_i.
	ris := make([]term.Rule, len(decs))
	for i, d := range decs {
		args := make([]term.Term, 0, 2*m)
		for _, j := range alpha {
			args = append(args, d.rec.Args[j])
		}
		for _, j := range alpha {
			args = append(args, d.head.Args[j])
		}
		ris[i] = term.Rule{Head: term.NewAtom(stepPred, args...), Body: d.w.Clone()}
	}

	// rC: t(X̄, Z̄) ← t(X̄, Ȳ) ∧ t(Ȳ, Z̄).
	mk := func(prefix string) []term.Term {
		out := make([]term.Term, m)
		for i := range out {
			out[i] = term.Var(fmt.Sprintf("%s%d", prefix, i+1))
		}
		return out
	}
	xbar, ybar, zbar := mk("X"), mk("Y"), mk("Z")
	rc := term.Rule{
		Head: term.NewAtom(stepPred, append(append([]term.Term{}, xbar...), zbar...)...),
		Body: term.Formula{
			term.NewAtom(stepPred, append(append([]term.Term{}, xbar...), ybar...)...),
			term.NewAtom(stepPred, append(append([]term.Term{}, ybar...), zbar...)...),
		},
	}

	tr := &Transformed{
		Pred: pred, StepPred: stepPred, Alpha: alpha,
		RT: rt, RIs: ris, RC: rc,
	}
	tr.StepToPred = findStepMapping(tr, nonRec, n)
	return tr, nil
}

// findStepMapping attempts the modified transformation: a position map π
// from StepPred arguments to Pred arguments such that every rI is, under
// π, a variant of a non-recursive rule of Pred, bijectively. Returns nil
// when no such map exists (e.g. 2m ≠ n, or the bases differ).
func findStepMapping(tr *Transformed, nonRec []term.Rule, n int) []int {
	if len(tr.Alpha)*2 != n || len(tr.RIs) != len(nonRec) || len(nonRec) == 0 {
		return nil
	}
	// Candidate mappings come from matching the first rI against each
	// non-recursive rule; each match must then hold for all rIs under a
	// bijection.
	for _, cand := range candidateMappings(tr.RIs[0], nonRec, n) {
		if mappingCoversAll(tr, nonRec, cand) {
			return cand
		}
	}
	return nil
}

// candidateMappings finds position maps π making rI a variant of some
// non-recursive rule: π[j] = position in p of t's argument j.
func candidateMappings(ri term.Rule, nonRec []term.Rule, n int) [][]int {
	var out [][]int
	for _, nr := range nonRec {
		if len(nr.Body) != len(ri.Body) {
			continue
		}
		// Map t-head args onto p-head args via the variable correspondence
		// induced by matching the bodies.
		corr, ok := bodyCorrespondence(ri.Body, nr.Body)
		if !ok {
			continue
		}
		pi := make([]int, len(ri.Head.Args))
		used := make(map[int]bool)
		good := true
		for j, a := range ri.Head.Args {
			target, ok := corr[a]
			if !ok {
				good = false
				break
			}
			pos := -1
			for k, b := range nr.Head.Args {
				if b == target && !used[k] {
					pos = k
					break
				}
			}
			if pos < 0 {
				good = false
				break
			}
			pi[j] = pos
			used[pos] = true
		}
		if good && len(pi) == n {
			out = append(out, pi)
		}
	}
	return out
}

// bodyCorrespondence builds a bijective variable mapping making the two
// bodies equal atom-for-atom (in order).
func bodyCorrespondence(a, b term.Formula) (map[term.Term]term.Term, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	fwd := make(map[term.Term]term.Term)
	rev := make(map[term.Term]term.Term)
	for i := range a {
		if a[i].Pred != b[i].Pred || len(a[i].Args) != len(b[i].Args) {
			return nil, false
		}
		for j := range a[i].Args {
			x, y := a[i].Args[j], b[i].Args[j]
			if x.IsVar() != y.IsVar() {
				return nil, false
			}
			if !x.IsVar() {
				if x != y {
					return nil, false
				}
				continue
			}
			if prev, ok := fwd[x]; ok && prev != y {
				return nil, false
			}
			if prev, ok := rev[y]; ok && prev != x {
				return nil, false
			}
			fwd[x] = y
			rev[y] = x
		}
	}
	return fwd, true
}

// mappingCoversAll verifies that under π every rI is a variant of some
// non-recursive rule, bijectively.
func mappingCoversAll(tr *Transformed, nonRec []term.Rule, pi []int) bool {
	usedNR := make([]bool, len(nonRec))
	for _, ri := range tr.RIs {
		// Rewrite the rI head as a p-atom under π.
		args := make([]term.Term, len(pi))
		for j, pos := range pi {
			args[pos] = ri.Head.Args[j]
		}
		cand := term.Rule{Head: term.NewAtom(tr.Pred, args...), Body: ri.Body}
		found := false
		for k, nr := range nonRec {
			if usedNR[k] {
				continue
			}
			if isVariant(cand, nr) {
				usedNR[k] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// IsVariant reports whether two rules are equal up to a bijective
// variable renaming (head and body, conjunct order sensitive). It is the
// matching used by the modified transformation (§5.3) and by the
// duplicate-rule analyzer.
func IsVariant(a, b term.Rule) bool { return isVariant(a, b) }

// isVariant reports whether two rules are equal up to a bijective
// variable renaming (head and body in order).
func isVariant(a, b term.Rule) bool {
	fa := append(term.Formula{a.Head}, a.Body...)
	fb := append(term.Formula{b.Head}, b.Body...)
	_, ok := bodyCorrespondence(fa, fb)
	return ok
}

// RewriteStepAtom renders a step-predicate atom as an atom of the
// original predicate under the modified transformation's mapping. It
// returns the input unchanged (and false) when the atom is not a step
// atom with a mapping.
func (res *Result) RewriteStepAtom(a term.Atom) (term.Atom, bool) {
	tr, ok := res.steps[a.Pred]
	if !ok || tr.StepToPred == nil {
		return a, false
	}
	args := make([]term.Term, len(tr.StepToPred))
	for j, pos := range tr.StepToPred {
		args[pos] = a.Args[j]
	}
	return term.NewAtom(tr.Pred, args...), true
}
