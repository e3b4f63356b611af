package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/term"
	"kdb/internal/transform"
)

// The differential net under the describe search. The oracle is the
// seed's enumerator as it stood before the rule table and the trail: it
// indexes the rules per statement, asks the transformation for every
// rule's kind at every node, passes a term.Subst down the recursion and
// clones it at every choice, and removes redundant answers by preparing
// both sides of every ordered pair from scratch. A seeded generator makes
// rule sets and statements; the describer must return the oracle's
// formulas as strings in the oracle's order, with the same hypothesis
// usage, rules, node count and flags, and fail where it fails.

// --- the oracle ---

// oracleDescribe is Describer.describe over the oracle's search.
func oracleDescribe(d *Describer, subject term.Atom, hypothesis term.Formula) (*Answers, error) {
	hypOrd, hypCmp := splitHypothesis(hypothesis)
	// Comparisons no values satisfy contradict the knowledge base whatever
	// the rules: the special answer, before any search (§4).
	var alpha term.Formula
	for _, c := range hypCmp {
		alpha = append(alpha, c.atom)
	}
	if sat, err := builtin.Sat(alpha); err != nil || !sat {
		return &Answers{Subject: subject, Hypothesis: hypothesis, Contradiction: true}, err
	}
	alg2 := d.graph.DependsOnRecursive(subject.Pred)
	if len(hypOrd) == 0 {
		alg2 = false
	}
	rules := d.graph.Rules()
	g := d.graph
	if alg2 {
		rules = d.trans.Rules
		g = depgraph.New(rules)
	}
	userVars := make(map[term.Term]bool)
	subjectVars := make(map[term.Term]bool)
	hypVars := make(map[term.Term]bool)
	for _, v := range subject.Vars(nil) {
		userVars[v] = true
		subjectVars[v] = true
	}
	for _, v := range hypothesis.Vars() {
		userVars[v] = true
		hypVars[v] = true
	}
	s := &oracleSearch{
		d:           d,
		alg2:        alg2,
		graph:       g,
		subject:     subject,
		hypOrd:      hypOrd,
		hypCmp:      hypCmp,
		userVars:    userVars,
		subjectVars: subjectVars,
		hypVars:     hypVars,
		seen:        make(map[string]bool),
		usedHyp:     make(map[int]bool),
	}
	byHead := make(map[string][]term.Rule)
	for _, r := range rules {
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], r)
	}
	s.byHead = byHead
	if err := s.run(); err != nil {
		return nil, err
	}
	ans := &Answers{Subject: subject, Hypothesis: hypothesis, SearchStats: SearchStats{Nodes: s.nodes, Truncated: s.truncated}}
	ans.Formulas = oracleEliminateRedundant(s.answers, userVars)
	if len(ans.Formulas) == 0 && s.discarded > 0 {
		ans.Contradiction = true
	}
	return ans, nil
}

// oracleSearch carries the backtracking state of one describe evaluation.
type oracleSearch struct {
	d           *Describer
	gov         *governor.Governor
	alg2        bool
	graph       *depgraph.Graph
	byHead      map[string][]term.Rule
	subject     term.Atom
	hypOrd      []indexedAtom
	hypCmp      []indexedAtom
	userVars    map[term.Term]bool
	subjectVars map[term.Term]bool
	hypVars     map[term.Term]bool

	rn term.Renamer

	// Path state (saved/restored around choices).
	leaves    term.Formula
	treeAtoms []term.Atom
	viaRules  []term.Rule
	obls      []bool
	usedHyp   map[int]bool

	answers       []Answer
	seen          map[string]bool
	discarded     int
	anyProductive bool
	truncated     bool
	nodes         int
}

// run explores the root choices: identification of the subject with
// hypothesis conjuncts, and expansion by each rule of the subject's
// predicate. Root rules that never complete productively contribute
// their one-level answer — but only when no productive answer exists at
// all, which reproduces the paper's displayed outputs (Examples 4–6) and
// its §6 remark that a hypothesis that cannot participate leaves the
// answer identical to the hypothesis-free one.
func (s *oracleSearch) run() error {
	s.treeAtoms = append(s.treeAtoms, s.subject)

	// Root identification (Example 6's first answer).
	for _, h := range s.hypOrd {
		sigma, ok := term.Unify(s.subject, h.atom, nil)
		if !ok {
			continue
		}
		if s.alg2 && !s.typedOK(nil, sigma) {
			continue
		}
		s.usedHyp[h.idx] = true
		s.anyProductive = true
		if err := s.emit(sigma); err != nil {
			return err
		}
		delete(s.usedHyp, h.idx)
	}

	// Root rule expansions.
	type pending struct {
		rule  term.Rule
		sigma term.Subst
		body  term.Formula
	}
	var unproductive []pending
	for _, r := range s.byHead[s.subject.Pred] {
		fresh := s.rn.RenameRule(r)
		sigma, ok := term.Unify(s.subject, fresh.Head, nil)
		if !ok {
			continue
		}
		before := len(s.answers)
		beforeDiscarded := s.discarded
		agenda := s.childNodes(fresh.Body, r, node{})
		s.viaRules = append(s.viaRules, r)
		s.treeAtoms = append(s.treeAtoms, fresh.Body...)
		oblID := len(s.obls)
		s.obls = append(s.obls, false)
		for i := range agenda {
			agenda[i].obligations = []int{oblID}
		}
		if err := s.step(agenda, sigma); err != nil {
			return err
		}
		s.obls = s.obls[:oblID]
		s.treeAtoms = s.treeAtoms[:len(s.treeAtoms)-len(fresh.Body)]
		s.viaRules = s.viaRules[:len(s.viaRules)-1]
		if len(s.answers) == before && s.discarded == beforeDiscarded {
			unproductive = append(unproductive, pending{rule: r, sigma: sigma, body: fresh.Body})
		} else {
			// A completion existed — even one discarded for contradicting
			// the hypothesis counts as productive (§4's special answer).
			s.anyProductive = true
		}
	}

	// One-level answers for unproductive rules, when nothing was
	// productive anywhere (§4's exception; Example 4).
	if !s.anyProductive {
		for _, p := range unproductive {
			s.leaves = append(s.leaves, p.body...)
			s.viaRules = append(s.viaRules, p.rule)
			if err := s.emit(p.sigma); err != nil {
				return err
			}
			s.viaRules = s.viaRules[:len(s.viaRules)-1]
			s.leaves = s.leaves[:len(s.leaves)-len(p.body)]
		}
	}
	return nil
}

// step processes the agenda depth-first (leftmost open formula first).
func (s *oracleSearch) step(agenda []node, sigma term.Subst) error {
	if s.truncated {
		return nil
	}
	s.nodes++
	// Node expansion is heavyweight, so consult the context on every
	// node (not amortized): small searches must still observe a
	// cancellation promptly.
	if err := s.gov.Err(); err != nil {
		return err
	}
	if err := s.gov.CheckDescribeNodes(s.nodes); err != nil {
		return err
	}
	if s.nodes > s.d.opts.MaxNodes || len(s.answers) >= s.d.opts.MaxAnswers {
		s.truncated = true
		return nil
	}
	if len(agenda) == 0 {
		for _, ok := range s.obls {
			if !ok {
				return nil // an expansion without an identification: cut
			}
		}
		return s.emit(sigma)
	}
	q := agenda[0]
	rest := agenda[1:]

	// Comparison formulas are never identified and never expanded (§4):
	// they drop to the leaves and meet the hypothesis in the post-pass.
	if term.IsComparison(q.atom) {
		s.leaves = append(s.leaves, q.atom)
		err := s.step(rest, sigma)
		s.leaves = s.leaves[:len(s.leaves)-1]
		return err
	}

	// Choice 1: identify with a hypothesis conjunct. Away from the root,
	// an identification that would constrain the user's variables (bind
	// two of them together, or bind one to a constant) is skipped: such
	// bindings narrow the answer's head and belong only to root
	// identifications (Example 6's `X = databases`). This choice of
	// interpretation reproduces the paper's displayed outputs.
	identified := false
	for _, h := range s.hypOrd {
		ext, ok := term.Unify(q.atom, h.atom, sigma)
		if !ok {
			continue
		}
		if s.constrainsUserVars(sigma, ext) {
			continue
		}
		if s.alg2 && !s.typedOK(sigma, ext) {
			continue
		}
		identified = true
		sat := s.satisfy(q.obligations)
		wasUsed := s.usedHyp[h.idx]
		s.usedHyp[h.idx] = true
		if err := s.step(rest, ext); err != nil {
			return err
		}
		if !wasUsed {
			delete(s.usedHyp, h.idx)
		}
		s.unsatisfy(sat)
	}

	// Choice 2: expand with each admissible rule. The expansion carries a
	// new obligation: its subtree must identify something, or the branch
	// is cut (the paper's "subtrees without hypothesis leaves are cut off
	// below their subtree roots"). With no identification targets at all,
	// no expansion can ever be productive — skip the choice entirely,
	// which also keeps hypothesis-free describes of recursive subjects
	// linear over the original rules.
	if q.depth < s.d.opts.MaxDepth && len(s.hypOrd) > 0 {
		for _, r := range s.byHead[q.atom.Pred] {
			if !s.ruleAllowed(q, r) {
				continue
			}
			fresh := s.rn.RenameRule(r)
			ext, ok := term.Unify(sigma.Apply(q.atom), fresh.Head, sigma)
			if !ok {
				continue
			}
			children := s.childNodes(fresh.Body, r, q)
			oblID := len(s.obls)
			s.obls = append(s.obls, false)
			inherited := append(append([]int{}, q.obligations...), oblID)
			for i := range children {
				children[i].obligations = inherited
			}
			s.treeAtoms = append(s.treeAtoms, fresh.Body...)
			s.viaRules = append(s.viaRules, r)
			next := append(children, rest...)
			if err := s.step(next, ext); err != nil {
				return err
			}
			s.viaRules = s.viaRules[:len(s.viaRules)-1]
			s.treeAtoms = s.treeAtoms[:len(s.treeAtoms)-len(fresh.Body)]
			s.obls = s.obls[:oblID]
		}
	}

	// Choice 3: remain a leaf — only when no identification was possible,
	// which keeps answers at the paper's displayed generality (a formula
	// that can meet the hypothesis must meet it).
	if !identified {
		s.leaves = append(s.leaves, q.atom)
		err := s.step(rest, sigma)
		s.leaves = s.leaves[:len(s.leaves)-1]
		return err
	}
	return nil
}

func containsVar(vs []term.Term, v term.Term) bool { return slices.Contains(vs, v) }

// constrainsUserVars reports whether ext narrows the user's variables
// relative to sigma: a user variable newly bound to a constant, or two
// user variables newly unified. Unifying a subject-only variable with a
// hypothesis-only variable is NOT constraining — that is the natural
// reading when the query spells the subject and the hypothesis with
// different names (and what the wildcard extension relies on).
func (s *oracleSearch) constrainsUserVars(sigma, ext term.Subst) bool {
	vars := make([]term.Term, 0, len(s.userVars))
	for v := range s.userVars {
		vars = append(vars, v)
	}
	crossGroup := func(v, w term.Term) bool {
		subjOnlyV := s.subjectVars[v] && !s.hypVars[v]
		hypOnlyV := s.hypVars[v] && !s.subjectVars[v]
		subjOnlyW := s.subjectVars[w] && !s.hypVars[w]
		hypOnlyW := s.hypVars[w] && !s.subjectVars[w]
		return subjOnlyV && hypOnlyW || hypOnlyV && subjOnlyW
	}
	for i, v := range vars {
		if ext.Walk(v).IsConst() && !sigma.Walk(v).IsConst() {
			return true
		}
		for j := 0; j < i; j++ {
			w := vars[j]
			if ext.Walk(v) == ext.Walk(w) && sigma.Walk(v) != sigma.Walk(w) && !crossGroup(v, w) {
				return true
			}
		}
	}
	return false
}

// childNodes builds agenda nodes for a rule's body, assigning Algorithm 2
// tags according to the rule kind (§5.3, Figure 3 boxes 9a–9e).
func (s *oracleSearch) childNodes(body term.Formula, r term.Rule, parent node) []node {
	kind := transform.KindOrdinary
	untyped := parent.untyped
	if s.alg2 {
		kind = s.d.trans.Kind(r)
		if s.d.trans.IsUntypedRule(r) && s.graph.IsRecursiveRule(r) {
			untyped++
		}
	}
	children := make([]node, len(body))
	for i, a := range body {
		children[i] = node{atom: a, depth: parent.depth + 1, untyped: untyped}
	}
	switch kind {
	case transform.KindRT:
		// The step-atom child gets tag 2, the predicate child tag 0.
		for i, a := range body {
			if _, isStep := s.d.trans.IsStepPred(a.Pred); isStep {
				children[i].tag = tag2
			} else {
				children[i].tag = tag0
			}
		}
	case transform.KindRC:
		switch parent.tag {
		case tag1:
			for i := range children {
				children[i].tag = tag0
			}
		default: // tag2 or an untagged step goal
			children[0].tag = tag1
			for i := 1; i < len(children); i++ {
				children[i].tag = tag0
			}
		}
	}
	return children
}

// ruleAllowed enforces the tag discipline and the untyped bound.
func (s *oracleSearch) ruleAllowed(q node, r term.Rule) bool {
	if !s.alg2 {
		return true
	}
	switch s.d.trans.Kind(r) {
	case transform.KindRT, transform.KindRC:
		return q.tag != tag0
	}
	if s.d.trans.IsUntypedRule(r) && s.graph.IsRecursiveRule(r) {
		return q.untyped < s.d.opts.UntypedBound
	}
	return true
}

// typedOK implements Algorithm 2's substitution guard: the candidate
// substitution ext is disqualified when it would cause two occurrences of
// a (transformed) recursive predicate somewhere in the tree or hypothesis
// to hold the same variable at different positions (§5.3; sufficient
// condition of footnote 4). A predicate that already exhibits swapped
// positions under the current substitution sigma — because an ordinary
// rule like `roundtrip(X, Y) ← reachable(X, Y) ∧ reachable(Y, X)` is
// legitimately untyped with respect to it — is exempt: the guard only
// rejects conflicts the new substitution introduces.
func (s *oracleSearch) typedOK(sigma, ext term.Subst) bool {
	before := s.conflictedPreds(sigma)
	for pred := range s.conflictedPreds(ext) {
		if !before[pred] {
			return false
		}
	}
	return true
}

// conflictedPreds returns the recursive predicates for which some
// variable occupies two distinct argument positions across the tree and
// hypothesis atoms, under the given substitution.
func (s *oracleSearch) conflictedPreds(sub term.Subst) map[string]bool {
	out := make(map[string]bool)
	positions := make(map[string]map[term.Term]int)
	check := func(a term.Atom) {
		if !s.d.recPreds[a.Pred] || out[a.Pred] {
			return
		}
		pos := positions[a.Pred]
		if pos == nil {
			pos = make(map[term.Term]int)
			positions[a.Pred] = pos
		}
		b := sub.Apply(a)
		for i, t := range b.Args {
			if !t.IsVar() {
				continue
			}
			if prev, ok := pos[t]; ok && prev != i {
				out[a.Pred] = true
				return
			}
			pos[t] = i
		}
	}
	for _, a := range s.treeAtoms {
		check(a)
	}
	for _, h := range s.hypOrd {
		check(h.atom)
	}
	return out
}

// satisfy marks obligations satisfied, returning the ones newly set so
// the caller can restore them.
func (s *oracleSearch) satisfy(ids []int) []int {
	var newly []int
	for _, id := range ids {
		if !s.obls[id] {
			s.obls[id] = true
			newly = append(newly, id)
		}
	}
	return newly
}

func (s *oracleSearch) unsatisfy(ids []int) {
	for _, id := range ids {
		s.obls[id] = false
	}
}

// emit assembles one answer from the current path state, applies the §4
// comparison post-pass, and records it (deduplicated).
func (s *oracleSearch) emit(sigma term.Subst) error {
	body := sigma.ApplyFormula(s.leaves)

	// User-variable bindings: rename fresh images back to the user's
	// variable where possible, otherwise surface the binding as an
	// equality atom (Example 6's `X = databases`). Hypothesis variables
	// are treated like subject variables — a binding imposed on them is
	// part of the answer's meaning. Subject variables take rename
	// priority.
	var equalities term.Formula
	rename := term.NewSubst(2)
	userOrder := s.subject.Vars(nil)
	var hypVars []term.Term
	for _, h := range s.hypOrd {
		hypVars = h.atom.Vars(hypVars)
	}
	for _, h := range s.hypCmp {
		hypVars = h.atom.Vars(hypVars)
	}
	for _, v := range hypVars {
		if !containsVar(userOrder, v) {
			userOrder = append(userOrder, v)
		}
	}
	for _, v := range userOrder {
		t := sigma.Walk(v)
		if t == v {
			continue
		}
		if t.IsVar() && !s.userVars[t] {
			if prev, ok := rename[t]; ok {
				// Two user variables share an image: keep one rename,
				// surface the other as an equality.
				equalities = append(equalities, term.NewAtom(term.PredEq, v, prev))
			} else {
				rename[t] = v
			}
			continue
		}
		equalities = append(equalities, term.NewAtom(term.PredEq, v, t))
	}
	if len(rename) > 0 {
		body = rename.ApplyFormula(body)
	}
	full := append(equalities, body...)

	// §4 comparison post-pass. α is the hypothesis's comparison part under
	// the answer's substitution (and the rename).
	alpha := make(term.Formula, 0, len(s.hypCmp))
	for _, c := range s.hypCmp {
		alpha = append(alpha, rename.Apply(sigma.Apply(c.atom)))
	}
	kept := make(term.Formula, 0, len(full))
	var removed term.Formula
	for _, a := range full {
		if !term.IsComparison(a) {
			kept = append(kept, a)
			continue
		}
		implied, err := builtin.Implies(alpha, term.Formula{a})
		if err != nil {
			return err
		}
		if implied {
			removed = append(removed, a)
			continue
		}
		kept = append(kept, a)
	}
	// Discard the answer when the hypothesis contradicts its comparisons.
	var bodyCmp term.Formula
	for _, a := range kept {
		if term.IsComparison(a) {
			bodyCmp = append(bodyCmp, a)
		}
	}
	if len(alpha) > 0 && len(bodyCmp) > 0 {
		contra, err := builtin.Contradicts(alpha, bodyCmp)
		if err != nil {
			return err
		}
		if contra {
			s.discarded++
			return nil
		}
	}

	used := make([]int, 0, len(s.usedHyp))
	for idx := range s.usedHyp {
		used = append(used, idx)
	}
	// Comparison hypothesis conjuncts count as used when their removal
	// would lose a β-elimination.
	for _, c := range s.hypCmp {
		needed := false
		for _, beta := range removed {
			reduced := make(term.Formula, 0, len(alpha)-1)
			for _, other := range s.hypCmp {
				if other.idx == c.idx {
					continue
				}
				reduced = append(reduced, rename.Apply(sigma.Apply(other.atom)))
			}
			still, err := builtin.Implies(reduced, term.Formula{beta})
			if err != nil {
				return err
			}
			if !still {
				needed = true
				break
			}
		}
		if needed {
			used = append(used, c.idx)
		}
	}

	// Prefer the original predicate over the artificial step predicate
	// when the modified transformation applies (§5.3).
	if s.alg2 && !s.d.opts.KeepSteps {
		for i, a := range kept {
			if rewritten, ok := s.d.trans.RewriteStepAtom(a); ok {
				kept[i] = rewritten
			}
		}
	}

	ans := Answer{
		Head:           term.NewAtom(s.subject.Pred, s.subject.Args...),
		Body:           kept,
		UsedHypothesis: used,
		ViaRules:       append([]term.Rule(nil), s.viaRules...),
	}
	ans.prettify(slices.Collect(maps.Keys(s.userVars)))
	key := ans.key(s.userVars)
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	s.answers = append(s.answers, ans)
	return nil
}

// key canonicalizes the answer for duplicate elimination: user variables
// (those of the head) stay fixed, all other variables are renamed in
// order of first occurrence, and the body is treated as a set.
func (a Answer) key(userVars map[term.Term]bool) string {
	renamed := canonicalizeVars(a.Body, userVars)
	return a.Head.Key() + "\x03" + renamed.SetKey()
}

// canonicalizeVars renames every non-user variable of the formula to
// _G1, _G2, … in order of first occurrence.
func canonicalizeVars(f term.Formula, userVars map[term.Term]bool) term.Formula {
	s := term.NewSubst(4)
	n := 0
	out := make(term.Formula, len(f))
	for i, atom := range f {
		args := make([]term.Term, len(atom.Args))
		for j, t := range atom.Args {
			if t.IsVar() && !userVars[t] {
				v, ok := s[t]
				if !ok {
					n++
					v = term.Var(fmt.Sprintf("_G%d", n))
					s[t] = v
				}
				args[j] = v
			} else {
				args[j] = t
			}
		}
		out[i] = term.Atom{Pred: atom.Pred, Args: args}
	}
	return out
}

// oracleEliminateRedundant removes answers that are logical consequences of
// other answers (the paper's redundancy-free requirement, §3.2). The test
// is θ-subsumption strengthened with comparison implication: answer a
// makes answer b redundant when a substitution θ that fixes the head
// variables maps every ordinary atom of a's body onto an atom of b's
// body, and b's comparisons imply θ of a's comparisons. Then b's rule is
// a logical consequence of a's and b adds nothing.
func oracleEliminateRedundant(answers []Answer, userVars map[term.Term]bool) []Answer {
	if len(answers) <= 1 {
		return answers
	}
	redundant := make([]bool, len(answers))
	for i := range answers {
		if redundant[i] {
			continue
		}
		for j := range answers {
			if i == j || redundant[j] {
				continue
			}
			if oracleSubsumes(answers[i], answers[j], userVars) {
				// Keep the earlier answer on mutual subsumption.
				if j > i || !oracleSubsumes(answers[j], answers[i], userVars) {
					redundant[j] = true
				}
			}
		}
	}
	out := make([]Answer, 0, len(answers))
	for i, a := range answers {
		if !redundant[i] {
			out = append(out, a)
		}
	}
	return out
}

// oracleSubsumes reports whether answer a θ-oracleSubsumes answer b: a's body, under
// some substitution fixing the user's variables (both answers implicitly
// carry the same head and hypothesis, whose variables denote the same
// objects), is covered by b's body — ordinary atoms by matching,
// comparisons by implication. The pattern side is renamed apart first:
// the two answers typically share non-user variable names, and
// θ-subsumption may bind only the pattern's own variables.
func oracleSubsumes(a, b Answer, userVars map[term.Term]bool) bool {
	if !a.Head.Equal(b.Head) {
		return false
	}
	fixed := make(map[term.Term]bool, len(userVars)+2)
	for v := range userVars {
		fixed[v] = true
	}
	for _, v := range a.Head.Vars(nil) {
		fixed[v] = true
	}
	aCmp, aOrd := builtin.Split(oracleRenameApart(a.Body, fixed))
	bCmp, bOrd := builtin.Split(b.Body)
	// Enumerate matchers of a's ordinary atoms into b's.
	return oracleMatchAtoms(aOrd, bOrd, fixed, nil, func(theta term.Subst) bool {
		implied, err := builtin.Implies(bCmp, theta.ApplyFormula(aCmp))
		return err == nil && implied
	})
}

// oracleRenameApart replaces every non-fixed variable of the formula with a
// fresh variable whose name cannot occur in user programs, so pattern and
// target of a matching problem never share variables.
func oracleRenameApart(f term.Formula, fixed map[term.Term]bool) term.Formula {
	sub := term.NewSubst(4)
	n := 0
	for _, v := range f.Vars() {
		if !fixed[v] {
			n++
			sub[v] = term.Var(fmt.Sprintf("\x01R%d", n))
		}
	}
	return sub.ApplyFormula(f)
}

// oracleMatchAtoms enumerates substitutions θ (extending base, fixing the
// variables in fixed) with θ(pattern[i]) ∈ targets for every i, calling
// ok for each; it returns true as soon as ok does.
func oracleMatchAtoms(pattern, targets term.Formula, fixed map[term.Term]bool, base term.Subst, ok func(term.Subst) bool) bool {
	if len(pattern) == 0 {
		return ok(base)
	}
	p := pattern[0]
	for _, t := range targets {
		theta, matched := oracleMatchFixed(p, t, fixed, base)
		if !matched {
			continue
		}
		if oracleMatchAtoms(pattern[1:], targets, fixed, theta, ok) {
			return true
		}
	}
	return false
}

// oracleMatchFixed is one-way matching where variables in fixed may only map to
// themselves.
func oracleMatchFixed(pattern, target term.Atom, fixed map[term.Term]bool, base term.Subst) (term.Subst, bool) {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return nil, false
	}
	s := base.Clone()
	if s == nil {
		s = term.NewSubst(len(pattern.Args))
	}
	for i := range pattern.Args {
		p := s.Walk(pattern.Args[i])
		g := target.Args[i]
		switch {
		case p == g:
		case p.IsVar() && !fixed[p]:
			s.Bind(p, g)
		default:
			return nil, false
		}
	}
	return s, true
}

// --- the generator ---

// genCase is one generated rule set, its describer options and one
// describe statement.
type genCase struct {
	rules   []term.Rule
	opts    Options
	subject term.Atom
	hyp     term.Formula
}

func (c genCase) String() string {
	var b strings.Builder
	for _, r := range c.rules {
		fmt.Fprintf(&b, "%v\n", r)
	}
	fmt.Fprintf(&b, "describe %v", c.subject)
	if len(c.hyp) > 0 {
		fmt.Fprintf(&b, " where %v", c.hyp)
	}
	fmt.Fprintf(&b, ".\noptions: MaxDepth=%d UntypedBound=%d MaxAnswers=%d MaxNodes=%d KeepSteps=%v\n",
		c.opts.MaxDepth, c.opts.UntypedBound, c.opts.MaxAnswers, c.opts.MaxNodes, c.opts.KeepSteps)
	return b.String()
}

// genFeatures counts what the generator has produced, so the test can
// hold it to covering every shape the search special-cases.
type genFeatures map[string]int

var (
	genX, genY  = term.Var("X"), term.Var("Y")
	genBodyVars = []term.Term{genX, genY, term.Var("Z"), term.Var("W")}
	genFreeVars = []term.Term{term.Var("U"), term.Var("V")} // never in a subject
	genSyms     = []term.Term{term.Sym("a"), term.Sym("b")}
	genNums     = []term.Term{term.Num(1), term.Num(2), term.Num(3)}
	genEDB      = []string{"e", "f", "g", "n"}
	genIDB      = []string{"c0", "c1", "c2", "c3", "c4"}
	genArity    = map[string]int{"e": 2, "f": 2, "g": 1, "n": 2, "c0": 1, "c1": 2, "c2": 2, "c3": 1, "c4": 2}
	genOps      = []string{term.PredLt, term.PredLe, term.PredGt, term.PredGe}
)

type generator struct {
	r    *rand.Rand
	feat genFeatures
	// spell, when set, respells rule variables like the search's fresh
	// names. It draws apart from r, so the cases r makes stay the ones
	// the seeds have always made: θ-subsumption is exponential, and a
	// shifted stream can land on a rule set that takes minutes.
	spell *rand.Rand
}

func (g *generator) pick(ts []term.Term) term.Term { return ts[g.r.Intn(len(ts))] }
func (g *generator) name(ns []string) string       { return ns[g.r.Intn(len(ns))] }
func (g *generator) chance(percent int) bool       { return g.r.Intn(100) < percent }

// atom builds pred over the given variables, with an occasional constant.
func (g *generator) atom(pred string, vars []term.Term, constants int) term.Atom {
	args := make([]term.Term, genArity[pred])
	for i := range args {
		switch {
		case g.chance(constants) && pred == "n" && i == 1:
			args[i] = g.pick(genNums)
		case g.chance(constants):
			args[i] = g.pick(genSyms)
		default:
			args[i] = g.pick(vars)
		}
	}
	return term.Atom{Pred: pred, Args: args}
}

// rule makes one rule for the idx-th concept: stored atoms, concepts
// (mostly lower-numbered ones, so chains and shared sub-concepts are
// common and recursion is not), and a comparison on a measured value.
func (g *generator) rule(idx int) term.Rule {
	head := genIDB[idx]
	args := []term.Term{genX, genY}[:genArity[head]]
	switch {
	case g.chance(10):
		args[g.r.Intn(len(args))] = g.pick(genSyms)
		g.feat["constant in head"]++
	case g.chance(10) && len(args) == 2:
		args[1] = args[0]
		g.feat["repeated variable in head"]++
	}
	var body term.Formula
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		switch {
		case g.chance(40):
			callee := g.r.Intn(len(genIDB))
			if idx > 0 && !g.chance(15) {
				callee = g.r.Intn(idx)
			}
			body = append(body, g.atom(genIDB[callee], genBodyVars, 10))
			g.feat["concept in body"]++
		case g.chance(25):
			w := term.Var("W")
			body = append(body, term.NewAtom("n", g.pick(genBodyVars[:2]), w),
				term.NewAtom(g.name(genOps), w, g.pick(genNums)))
			g.feat["comparison in body"]++
		default:
			body = append(body, g.atom(g.name(genEDB), genBodyVars, 10))
		}
	}
	r := term.Rule{Head: term.Atom{Pred: head, Args: args}, Body: body}
	if g.spell != nil && g.spell.Intn(100) < 10 {
		// A body variable spelled like a fresh name of the search: renaming
		// the rule apart must not merge it with the variable whose image
		// it spells (X_1 is what X becomes at the first expansion).
		from := genBodyVars[2+g.spell.Intn(2)]
		to := term.Var(fmt.Sprintf("%s_%d", []string{"X", "Y", "Z"}[g.spell.Intn(3)], 1+g.spell.Intn(3)))
		if slices.Contains(r.Vars(), from) {
			r = term.Subst{from: to}.ApplyRule(r)
			g.feat["rule variable spelled like a fresh one"]++
		}
	}
	return r
}

func mustRules(src ...string) []term.Rule {
	var out []term.Rule
	for _, s := range src {
		p, err := parser.ParseProgram(s)
		if err != nil {
			panic(err)
		}
		out = append(out, p.Clauses...)
	}
	return out
}

func (g *generator) generate() genCase {
	var c genCase
	perConcept := make([][]term.Rule, len(genIDB))
	for i := range genIDB {
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			perConcept[i] = append(perConcept[i], g.rule(i))
		}
	}
	// The recursions the search treats specially, planted whole.
	if g.chance(30) {
		perConcept[2] = mustRules("c2(X, Y) :- e(X, Y).", "c2(X, Y) :- e(X, Z), c2(Z, Y).")
	}
	if g.chance(30) {
		perConcept[4] = mustRules("c4(X, Y) :- f(X, Y).", "c4(X, Y) :- c4(Y, X).")
	}
	if g.chance(20) {
		perConcept[0] = mustRules("c0(X) :- g(X), c3(X).")
		perConcept[3] = mustRules("c3(X) :- f(X, Y), c0(Y).", "c3(X) :- g(X).")
	}
	for _, rs := range perConcept {
		c.rules = append(c.rules, rs...)
	}

	// Bounds that keep the oracle's pairwise subsumption affordable; one
	// case in three is cut short on purpose.
	c.opts = Options{MaxDepth: 2 + g.r.Intn(3), UntypedBound: []int{1, 2, 4}[g.r.Intn(3)], KeepSteps: g.chance(30),
		MaxNodes: 1500, MaxAnswers: 24}
	switch {
	case g.chance(20):
		c.opts.MaxNodes = 2 + g.r.Intn(40)
	case g.chance(15):
		c.opts.MaxAnswers = 1 + g.r.Intn(2)
	}

	subject := g.name(genIDB)
	if g.chance(50) {
		subject = genIDB[1+g.r.Intn(2)] // the concepts with the most beneath them
	}
	c.subject = g.atom(subject, genBodyVars[:2], 15)
	if g.chance(10) && len(c.subject.Args) == 2 {
		c.subject.Args[1] = c.subject.Args[0]
	}

	hypVars := append(c.subject.Vars(nil), genFreeVars...)
	for n := g.r.Intn(4); n > 0; n-- {
		switch {
		case g.chance(25):
			c.hyp = append(c.hyp, term.NewAtom(g.name(genOps), g.pick(hypVars), g.pick(genNums)))
		case g.chance(25):
			// A measured value the rules compare, with a bound that may
			// contradict theirs.
			v := g.pick(genFreeVars)
			c.hyp = append(c.hyp, term.NewAtom("n", g.pick(hypVars), v),
				term.NewAtom(g.name(genOps), v, g.pick(genNums)))
		case g.chance(50):
			c.hyp = append(c.hyp, g.atom(g.name(genIDB), hypVars, 20))
		default:
			c.hyp = append(c.hyp, g.atom(g.name(genEDB), hypVars, 20))
		}
	}
	return c
}

// note records the shapes of a case the describer accepted.
func (g *generator) note(c genCase, d *Describer, ans *Answers) {
	users := make(map[string]int)
	for _, r := range c.rules {
		seen := make(map[string]bool)
		for _, a := range r.Body {
			if !seen[a.Pred] && len(d.graph.RulesFor(a.Pred)) > 0 {
				seen[a.Pred] = true
				users[a.Pred]++
			}
		}
	}
	for pred, n := range users {
		if n > 1 {
			g.feat["shared sub-concept"]++
		}
		for other := range users {
			if pred < other && d.graph.MutuallyDependent(pred, other) {
				g.feat["mutual recursion"]++
			}
		}
	}
	if len(d.graph.RulesFor(c.subject.Pred)) > 1 {
		g.feat["fan-out"]++
	}
	if sharesTable(d) {
		g.feat["one table for both algorithms"]++
	} else {
		g.feat["a table per algorithm"]++
	}
	ordinary, _ := splitHypothesis(c.hyp)
	if d.graph.DependsOnRecursive(c.subject.Pred) && len(ordinary) > 0 {
		g.feat["algorithm 2"]++
		if len(d.trans.ByPred) > 0 {
			g.feat["transformed recursion"]++
		}
		if len(d.trans.Untyped) > 0 {
			g.feat[fmt.Sprintf("untyped recursion under bound %d", c.opts.UntypedBound)]++
		}
	}
	subjectVars := c.subject.Vars(nil)
	for _, h := range c.hyp {
		switch {
		case term.IsComparison(h):
			g.feat["comparison hypothesis"]++
			continue
		case len(d.graph.RulesFor(h.Pred)) > 0:
			g.feat["concept hypothesis"]++
		default:
			g.feat["stored-predicate hypothesis"]++
		}
		if h.Pred != c.subject.Pred && !d.graph.DependsOn(c.subject.Pred, h.Pred) {
			g.feat["hypothesis that cannot participate"]++
		}
		shares := false
		for _, v := range h.Vars(nil) {
			shares = shares || containsVar(subjectVars, v)
		}
		if shares {
			g.feat["hypothesis sharing a subject variable"]++
		} else {
			g.feat["hypothesis disjoint from the subject"]++
		}
	}
	if ans == nil {
		return
	}
	switch {
	case ans.Contradiction && ans.Nodes == 0:
		g.feat["unsatisfiable hypothesis comparisons"]++
	case ans.Contradiction:
		g.feat["contradicting comparisons"]++
	}
	if ans.Truncated && c.opts.MaxNodes < 1500 {
		g.feat["truncated by MaxNodes"]++
	}
	if ans.Truncated && c.opts.MaxAnswers < 24 {
		g.feat["truncated by MaxAnswers"]++
	}
	if len(ans.Formulas) > 1 {
		g.feat["several answers"]++
	}
	for _, a := range ans.Formulas {
		if len(a.UsedHypothesis) > 1 {
			g.feat["answer using several conjuncts"]++
		}
		if len(a.ViaRules) > 1 {
			g.feat["answer through several rules"]++
		}
	}
}

// sharesTable reports whether both algorithms search one rule table.
func sharesTable(d *Describer) bool {
	return reflect.ValueOf(d.table).Pointer() == reflect.ValueOf(d.ttable).Pointer()
}

// --- the describer against the oracle ---

// sameAnswers describes the first difference between the describer's
// result and the oracle's, or returns "".
func sameAnswers(got, want *Answers, gerr, werr error) string {
	switch {
	case werr != nil && gerr == nil:
		return fmt.Sprintf("answered %v, the oracle failed with %q", got, werr)
	case werr != nil:
		if gerr.Error() != werr.Error() {
			return fmt.Sprintf("failed with %q, the oracle with %q", gerr, werr)
		}
		return ""
	case gerr != nil:
		return fmt.Sprintf("failed with %q, the oracle answered %v", gerr, want)
	}
	if got.Nodes != want.Nodes || got.Truncated != want.Truncated || got.Contradiction != want.Contradiction {
		return fmt.Sprintf("nodes=%d truncated=%v contradiction=%v, the oracle's nodes=%d truncated=%v contradiction=%v",
			got.Nodes, got.Truncated, got.Contradiction, want.Nodes, want.Truncated, want.Contradiction)
	}
	if len(got.Formulas) != len(want.Formulas) {
		return fmt.Sprintf("answered\n%v\nthe oracle\n%v", got, want)
	}
	for i, w := range want.Formulas {
		a := got.Formulas[i]
		if a.String() != w.String() {
			return fmt.Sprintf("answer %d is %v, the oracle's %v", i, a, w)
		}
		used := slices.Clone(w.UsedHypothesis)
		sort.Ints(used)
		if !slices.Equal(a.UsedHypothesis, used) {
			return fmt.Sprintf("answer %d (%v) uses conjuncts %v, the oracle's %v", i, a, a.UsedHypothesis, used)
		}
		if fmt.Sprint(a.ViaRules) != fmt.Sprint(w.ViaRules) {
			return fmt.Sprintf("answer %d (%v) came through %v, the oracle's through %v", i, a, a.ViaRules, w.ViaRules)
		}
	}
	return ""
}

// disagreement runs the case on the describer and on the oracle. A rule
// set New rejects (degenerate recursion) disagrees with nothing.
func disagreement(c genCase) (string, *Describer, *Answers) {
	d, err := New(c.rules, nil, c.opts)
	if err != nil {
		return "", nil, nil
	}
	if len(d.graph.RulesFor(c.subject.Pred)) == 0 {
		// No caller may describe a predicate without rules (kb refuses the
		// statement): the describer stops on its invariant.
		var pe *governor.PanicError
		if _, err := d.DescribeContext(context.Background(), c.subject, c.hyp, governor.Limits{}); !errors.As(err, &pe) {
			return fmt.Sprintf("described %v, which has no rules: %v", c.subject, err), d, nil
		}
		return "", d, nil
	}
	want, werr := oracleDescribe(d, c.subject, c.hyp)
	got, gerr := d.DescribeContext(context.Background(), c.subject, c.hyp, governor.Limits{})
	return sameAnswers(got, want, gerr, werr), d, got
}

// shrink drops rules and hypothesis conjuncts from a failing case, one at
// a time, for as long as it keeps failing.
func shrink(c genCase, fails func(genCase) bool) genCase {
	for again := true; again; {
		again = false
		for i := len(c.rules) - 1; i >= 0; i-- {
			d := c
			if d.rules = dropAt(c.rules, i); fails(d) {
				c, again = d, true
			}
		}
		for i := len(c.hyp) - 1; i >= 0; i-- {
			d := c
			if d.hyp = dropAt(c.hyp, i); fails(d) {
				c, again = d, true
			}
		}
	}
	return c
}

func dropAt[S ~[]E, E any](s S, i int) S { return slices.Delete(slices.Clone(s), i, i+1) }

// TestDescribeMatchesOracle: on seeded random rule sets and statements
// the describer returns what the seed's enumerator returns.
func TestDescribeMatchesOracle(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 200
	}
	feat := make(genFeatures)
	for seed := 1; seed <= seeds; seed++ {
		g := &generator{r: rand.New(rand.NewSource(int64(seed))), feat: feat, spell: rand.New(rand.NewSource(-int64(seed)))}
		c := g.generate()
		diff, d, ans := disagreement(c)
		if diff != "" {
			small := shrink(c, func(d genCase) bool { diff, _, _ := disagreement(d); return diff != "" })
			diff, _, _ = disagreement(small)
			t.Fatalf("seed %d: the describer %s\nshrunk to:\n%v", seed, diff, small)
		}
		if d == nil {
			feat["rule set New rejects"]++
			continue
		}
		// What lets the rule table do without a graph of the transformed
		// set: an exempted rule is recursive there too.
		tg := depgraph.New(d.trans.Rules)
		for _, r := range d.trans.Untyped {
			if !tg.IsRecursiveRule(r) {
				t.Fatalf("seed %d: exempted rule %v is not recursive in the transformed set\n%v", seed, r, c)
			}
		}
		g.note(c, d, ans)
	}
	for _, want := range []string{
		"fan-out", "concept in body", "shared sub-concept", "comparison in body",
		"constant in head", "repeated variable in head", "rule variable spelled like a fresh one",
		"transformed recursion", "mutual recursion", "algorithm 2",
		"untyped recursion under bound 1", "untyped recursion under bound 2", "untyped recursion under bound 4",
		"one table for both algorithms", "a table per algorithm",
		"concept hypothesis", "stored-predicate hypothesis", "comparison hypothesis",
		"hypothesis sharing a subject variable", "hypothesis disjoint from the subject",
		"hypothesis that cannot participate", "contradicting comparisons", "unsatisfiable hypothesis comparisons",
		"truncated by MaxNodes", "truncated by MaxAnswers",
		"several answers", "answer using several conjuncts", "answer through several rules",
	} {
		if feat[want] == 0 {
			t.Errorf("no generated case had: %s", want)
		}
	}
	t.Logf("generated: %v", feat)
}

// TestShrinkKeepsWhatFails: the shrinker reduces a case to the rules and
// conjuncts its failure depends on.
func TestShrinkKeepsWhatFails(t *testing.T) {
	var c genCase
	for seed := int64(1); len(c.hyp) < 2; seed++ {
		c = (&generator{r: rand.New(rand.NewSource(seed)), feat: make(genFeatures)}).generate()
	}
	rule, conjunct := c.rules[2], c.hyp[1]
	small := shrink(c, func(d genCase) bool {
		return slices.ContainsFunc(d.rules, func(r term.Rule) bool { return r.Equal(rule) }) &&
			slices.ContainsFunc(d.hyp, func(a term.Atom) bool { return a.Equal(conjunct) })
	})
	if len(small.rules) != 1 || len(small.hyp) != 1 {
		t.Fatalf("shrunk to %d rules and %d conjuncts:\n%v", len(small.rules), len(small.hyp), small)
	}
}

// TestDescribeMatchesOracleOnKnownStatements: the paper's examples
// (EXPERIMENTS.md) and the benchmark's describe families answer as the
// seed's enumerator does, node for node.
func TestDescribeMatchesOracleOnKnownStatements(t *testing.T) {
	chain := func(depth int) string {
		var b strings.Builder
		b.WriteString("goal(X) :- l1(X).\n")
		for d := 1; d < depth; d++ {
			fmt.Fprintf(&b, "l%d(X) :- l%d(X).\n", d, d+1)
		}
		fmt.Fprintf(&b, "l%d(X) :- target(X), side%d(X).\n", depth, depth)
		return b.String()
	}
	fanout := func(width int) string {
		var b strings.Builder
		for w := 0; w < width; w++ {
			fmt.Fprintf(&b, "goal(X) :- target(X), extra%d_0(X), extra%d_1(X), extra%d_2(X).\n", w, w, w)
		}
		return b.String()
	}
	nested := func(n int) string {
		var b strings.Builder
		for i := 0; i <= n; i++ {
			b.WriteString("goal(X) :- base(X)")
			for j := 0; j < i; j++ {
				fmt.Fprintf(&b, ", opt%d(X)", j)
			}
			b.WriteString(".\n")
		}
		return b.String()
	}
	const example8 = "p(X, Y) :- q(X, Z), r(Z, Y).\nq(X, Y) :- q(X, Z), s(Z, Y).\nq(X, Y) :- r(X, Y).\n"
	const reach = "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- reach(Y, X).\n"
	for _, kb := range []struct {
		program string
		opts    Options
		stmts   []string
	}{
		{universityIDB, Options{}, []string{
			`describe honor(X).`,
			`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			`describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
			`describe can_ta(X, Y) where complete(X, Y, Z, 4).`,
			`describe prior(X, Y) where prior(databases, Y).`,
			`describe prior(X, Y) where prior(X, databases).`,
			`describe honor(X) where student(X, M, V) and V > 3.5.`,
			`describe honor(X) where student(X, M, V) and V < 3.5.`,
			`describe honor(X) where complete(X, Y, Z, U) and U > 3.3.`,
			`describe can_ta(W1, W2) where honor(X).`,
			`describe prior(X, Y).`,
		}},
		{universityIDB, Options{KeepSteps: true}, []string{`describe prior(X, Y) where prior(databases, Y).`}},
		{example8, Options{}, []string{`describe p(X, Y) where r(a, Y).`, `describe q(X, Y) where s(X, Y).`}},
		{reach, Options{UntypedBound: 1}, []string{`describe reach(X, Y) where link(Y, X).`, `describe reach(X, Y) where reach(Y, X).`}},
		{reach, Options{UntypedBound: 2}, []string{`describe reach(X, Y) where link(Y, X).`, `describe reach(X, Y) where reach(Y, X).`}},
		{reach, Options{UntypedBound: 4}, []string{`describe reach(X, Y) where link(Y, X).`, `describe reach(X, Y) where reach(Y, X).`}},
		{fanout(32), Options{}, []string{`describe goal(X) where target(X).`, `describe goal(X).`}},
		{chain(12), Options{MaxDepth: 16}, []string{`describe goal(X) where target(X).`}},
		{nested(16), Options{}, []string{`describe goal(X) where base(X).`}},
		{"goal(X) :- part0(X), part1(X), part2(X).\n", Options{}, []string{
			`describe goal(X) where part0(X) and part1(X) and part2(X).`,
			`describe goal(X) where part0(X) and part1(X).`,
		}},
	} {
		d := newDescriber(t, kb.program, kb.opts)
		for _, stmt := range kb.stmts {
			pq, err := parser.ParseQuery(stmt)
			if err != nil {
				t.Fatal(err)
			}
			q := pq.(*parser.Describe)
			want, werr := oracleDescribe(d, q.Subject, q.Where)
			got, gerr := d.DescribeContext(context.Background(), q.Subject, q.Where, governor.Limits{})
			if diff := sameAnswers(got, want, gerr, werr); diff != "" {
				t.Errorf("%s\nthe describer %s", stmt, diff)
			}
		}
	}
}

// --- prepared subsumption against the pairwise test ---

// randomAnswer makes an answer for goal(X) over a few predicates, a few
// body variables and the user's X and U, with comparisons.
func (g *generator) randomAnswer() Answer {
	vars := []term.Term{genX, term.Var("U"), term.Var("A"), term.Var("B"), term.Var("C")}
	a := Answer{Head: term.NewAtom("goal", genX)}
	for n := g.r.Intn(4); n > 0; n-- {
		a.Body = append(a.Body, g.atom(g.name(genEDB), vars, 15))
	}
	for n := g.r.Intn(3); n > 0; n-- {
		a.Body = append(a.Body, term.NewAtom(g.name(genOps), g.pick(vars), g.pick(genNums)))
	}
	g.r.Shuffle(len(a.Body), func(i, j int) { a.Body[i], a.Body[j] = a.Body[j], a.Body[i] })
	return a
}

// TestPreparedSubsumptionMatchesPairwise: preparing each answer once and
// matching over the trail decides every ordered pair as the seed's
// subsumes does, and removes the same redundant answers.
func TestPreparedSubsumptionMatchesPairwise(t *testing.T) {
	userVars := map[term.Term]bool{genX: true, term.Var("U"): true}
	userList := []term.Term{genX, term.Var("U")}
	g := &generator{r: rand.New(rand.NewSource(1)), feat: make(genFeatures)}
	rounds := 600
	if testing.Short() {
		rounds = 100
	}
	subsumed, rejectedEarly := 0, 0
	for round := 0; round < rounds; round++ {
		answers := make([]Answer, 2+g.r.Intn(5))
		for i := range answers {
			answers[i] = g.randomAnswer()
		}
		m := newMatcher(userList)
		conjs := m.prepareAnswers(answers)
		for i := range answers {
			for j := range answers {
				want := oracleSubsumes(answers[i], answers[j], userVars)
				got, _ := m.subsumes(&conjs[i], &conjs[j])
				if got != want {
					t.Fatalf("%v subsumes %v: prepared says %v, pairwise %v", answers[i], answers[j], got, want)
				}
				if want {
					subsumed++
				}
				if cannotMatch(&conjs[i], &conjs[j]) {
					rejectedEarly++
				}
			}
		}
		want := fmt.Sprint(oracleEliminateRedundant(answers, userVars))
		if got := fmt.Sprint(eliminateRedundant(answers, userList)); got != want {
			t.Fatalf("of %v the prepared pass keeps\n%v\nthe pairwise pass\n%v", answers, got, want)
		}
	}
	if subsumed < rounds || rejectedEarly < rounds {
		t.Errorf("%d pairs subsumed and %d rejected by the pre-check in %d rounds: the generator has drifted", subsumed, rejectedEarly, rounds)
	}
}
