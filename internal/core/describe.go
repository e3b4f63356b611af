package core

import (
	"context"
	"fmt"
	"slices"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/term"
	"kdb/internal/transform"
)

// Options tune the describe engine.
type Options struct {
	// MaxDepth bounds rule expansions along any derivation-tree branch
	// (a safety net; the tags already bound disciplined recursion).
	MaxDepth int
	// UntypedBound is the §5.3 escape hatch: the maximum number of
	// applications of undisciplined (untyped / non-strongly-linear)
	// recursive rules along one branch.
	UntypedBound int
	// MaxAnswers caps the number of raw answers explored.
	MaxAnswers int
	// MaxNodes caps the total number of search steps; when exceeded the
	// search stops and returns the answers found so far (Truncated is set
	// on the result).
	MaxNodes int
	// KeepSteps disables rewriting artificial step-predicate atoms into
	// atoms of the original predicate (the modified transformation of
	// §5.3). By default answers prefer the original predicate, matching
	// the paper's preferred rendering of Example 6.
	KeepSteps bool
	// Constraints are the knowledge base's integrity constraints — the
	// paper's second Horn-clause form ¬(p1 ∧ … ∧ pn) (§2.1). The §6
	// possibility checker and negative-hypothesis checker reject
	// situations that trigger one.
	Constraints []term.Formula
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 16
	}
	if o.UntypedBound == 0 {
		o.UntypedBound = 2
	}
	if o.MaxAnswers == 0 {
		o.MaxAnswers = 512
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 2_000_000
	}
	return o
}

// Describer answers knowledge queries over a fixed rule set. Build one
// with New; it is safe for concurrent use.
type Describer struct {
	rules []term.Rule
	graph *depgraph.Graph
	table ruleTable

	// trans and ttable are the rule set after the §5.2 transformation.
	// When the transformation changed nothing, ttable is table itself.
	trans  *transform.Result
	ttable ruleTable
	// recPreds are the predicates with recursive rules in the transformed
	// set; the typed-substitution guard of Algorithm 2 applies to them.
	recPreds map[string]bool

	// keys are candidate keys per predicate (1-based columns), used by
	// the possibility checker (§6 extension 3).
	keys map[string][][]int

	// icDisjuncts are the integrity constraints expanded to EDB level,
	// one slice of alternative forbidden patterns per constraint.
	icDisjuncts [][]conj

	opts Options
}

// ruleEntry is a rule with what the search asks about it at every node
// and the rule set fixes once.
type ruleEntry struct {
	rule *term.Rule
	kind transform.RuleKind
	// untypedRec marks an undisciplined recursive rule: exempt from the
	// transformation and metered by Options.UntypedBound (§5.3, end).
	untypedRec bool
}

// ruleTable indexes a rule set's entries by head predicate, in rule
// order.
type ruleTable map[string][]ruleEntry

// newRuleTable classifies the rules of one side of the describer. trans
// is nil for the original rules, none of which the search treats
// specially. A rule the transformation exempted is recursive in its
// input by construction and stays so in its output — `p ← p ∧ w` became
// `p ← p ∧ t` and `t ← w`, so every dependency between the original
// predicates survives — which is why no graph of the transformed set is
// needed to say so.
func newRuleTable(rules []term.Rule, trans *transform.Result) ruleTable {
	t := make(ruleTable)
	for i := range rules {
		r := &rules[i]
		e := ruleEntry{rule: r}
		if trans != nil && len(trans.ByPred) > 0 {
			e.kind = trans.Kind(*r)
		}
		if trans != nil && len(trans.Untyped) > 0 {
			e.untypedRec = trans.IsUntypedRule(*r)
		}
		t[r.Head.Pred] = append(t[r.Head.Pred], e)
	}
	return t
}

// New builds a describer for the rule set. keys may be nil.
func New(rules []term.Rule, keys map[string][][]int, opts Options) (*Describer, error) {
	trans, err := transform.Apply(rules)
	if err != nil {
		return nil, err
	}
	// The typed-substitution guard applies to the predicates that went
	// through the transformation and their step predicates. Undisciplined
	// recursive rules are exempt from the typing requirement (§5.3, end):
	// they are metered by the untyped bound instead.
	rec := make(map[string]bool)
	for pred, tr := range trans.ByPred {
		rec[pred] = true
		rec[tr.StepPred] = true
	}
	if keys == nil {
		keys = map[string][][]int{}
	}
	d := &Describer{
		rules:    rules,
		graph:    depgraph.New(rules),
		trans:    trans,
		recPreds: rec,
		keys:     keys,
		opts:     opts.withDefaults(),
	}
	// A rule set the transformation left alone is searched through one
	// table by both algorithms: it is read-only from here on.
	if slices.EqualFunc(rules, trans.Rules, term.Rule.Equal) {
		d.table = newRuleTable(rules, trans)
		d.ttable = d.table
	} else {
		d.table = newRuleTable(rules, nil)
		d.ttable = newRuleTable(trans.Rules, trans)
	}
	// Expand each integrity constraint to stored-predicate level so the
	// consistency checker can match it against unfolded situations even
	// when the constraint names derived concepts.
	for _, ic := range d.opts.Constraints {
		dis, _, err := d.unfold(ic, defaultUnfoldLimits())
		if err != nil {
			return nil, err
		}
		d.icDisjuncts = append(d.icDisjuncts, newMatcher(nil).prepareAll(dis))
	}
	return d, nil
}

// Rules returns the original rule set.
func (d *Describer) Rules() []term.Rule { return d.rules }

// TransformedRules returns the rule set after the §5.2 transformation.
func (d *Describer) TransformedRules() []term.Rule { return d.trans.Rules }

// Describe evaluates `describe subject where hypothesis` (§3.2). The
// subject must be an IDB predicate (it has at least one rule). The
// hypothesis is a positive formula; its comparison conjuncts drive the §4
// comparison post-pass, its ordinary conjuncts are identification
// targets.
//
// The algorithm selection follows the paper: when the subject predicate
// is not recursive and does not depend on a recursive predicate,
// Algorithm 1 runs over the original rules; otherwise Algorithm 2 runs
// over the transformed rules with tags and typed substitutions.
//
//kdb:entrypoint
func (d *Describer) Describe(subject term.Atom, hypothesis term.Formula) (*Answers, error) {
	return d.DescribeContext(context.Background(), subject, hypothesis, governor.Limits{})
}

// DescribeContext is Describe under a query governor: the search checks
// the context cooperatively (amortized, once per tick interval of search
// steps) and limits.MaxDescribeNodes bounds the steps of the search as a
// hard error — unlike Options.MaxNodes, which truncates and returns the
// answers found so far. A breach surfaces as an errors.Is/As-able error
// (governor.ErrCanceled, context.DeadlineExceeded, *governor.LimitError);
// an internal panic is contained as a *governor.PanicError.
func (d *Describer) DescribeContext(ctx context.Context, subject term.Atom, hypothesis term.Formula, limits governor.Limits) (ans *Answers, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, limits)
	defer cancel()
	return d.describe(gov, obs.SpanFromContext(ctx), subject, hypothesis)
}

// describe runs one governed describe search. sp, when non-nil, is the
// query span the search phases are recorded under: "eval" covers the
// derivation-tree construction and cutting, "describe" the redundancy
// elimination and comparison post-processing.
func (d *Describer) describe(gov *governor.Governor, sp *obs.Span, subject term.Atom, hypothesis term.Formula) (*Answers, error) {
	if term.IsComparison(subject) {
		return nil, fmt.Errorf("core: the subject of describe cannot be a comparison")
	}
	if len(d.graph.RulesFor(subject.Pred)) == 0 {
		return nil, fmt.Errorf("core: %s is not an IDB predicate; describe inquires about defined concepts", subject.Pred)
	}
	hypOrd, hypCmp := splitHypothesis(hypothesis)
	alg2 := d.graph.DependsOnRecursive(subject.Pred)
	if len(hypOrd) == 0 {
		// No identification targets: the answer is the subject's own
		// definition (§4's one-level exception, Example 4). The original
		// rules are the right rendering — the transformation is an
		// internal device of Algorithm 2's search.
		alg2 = false
	}
	table := d.table
	if alg2 {
		table = d.ttable
	}
	s := &search{
		d:       d,
		gov:     gov,
		alg2:    alg2,
		typed:   alg2 && len(d.recPreds) > 0,
		table:   table,
		subject: subject,
		hypOrd:  hypOrd,
		hypCmp:  hypCmp,
		b:       newBindings(),
		seen:    make(map[string]bool),
		usedHyp: make([]bool, len(hypothesis)),
	}
	// The user's variables, each classed by where the query spells it:
	// the subject's first, then those of the hypothesis's ordinary
	// conjuncts, then those of its comparisons (the order emit renames in).
	s.userVars = make(map[term.Term]bool)
	for _, v := range subject.Vars(nil) {
		s.userVars[v] = true
		s.userList = append(s.userList, v)
		s.userClass = append(s.userClass, inSubject)
	}
	var hypVars []term.Term
	for _, h := range hypOrd {
		hypVars = h.atom.Vars(hypVars)
	}
	for _, h := range hypCmp {
		hypVars = h.atom.Vars(hypVars)
	}
	for _, v := range hypVars {
		if i := slices.Index(s.userList, v); i >= 0 {
			s.userClass[i] = inBoth
			continue
		}
		s.userVars[v] = true
		s.userList = append(s.userList, v)
		s.userClass = append(s.userClass, inHypothesis)
	}

	esp := sp.Child("eval")
	esp.SetStr("algorithm", map[bool]string{false: "1", true: "2"}[alg2])
	err := s.run()
	esp.SetInt("nodes", int64(s.nodes))
	esp.SetInt("answers", int64(len(s.answers)))
	esp.SetBool("truncated", s.truncated)
	if err != nil {
		esp.SetStr("stop", governor.StopReason(err))
		esp.End()
		return nil, err
	}
	esp.End()

	dsp := sp.Child("describe")
	ans := &Answers{Subject: subject, Hypothesis: hypothesis, Truncated: s.truncated, Nodes: s.nodes}
	ans.Formulas = eliminateRedundant(s.answers, s.userVars)
	if len(ans.Formulas) == 0 && s.discarded > 0 {
		ans.Contradiction = true
	}
	dsp.SetInt("formulas", int64(len(ans.Formulas)))
	dsp.End()
	return ans, nil
}

// indexedAtom is a hypothesis conjunct with its original index.
type indexedAtom struct {
	idx  int
	atom term.Atom
}

func splitHypothesis(h term.Formula) (ord []indexedAtom, cmp []indexedAtom) {
	for i, a := range h {
		if term.IsComparison(a) {
			cmp = append(cmp, indexedAtom{i, a})
		} else {
			ord = append(ord, indexedAtom{i, a})
		}
	}
	return ord, cmp
}

// node tags of Algorithm 2 (§5.3): tag 0 forbids applying a recursive
// rule to the node; 1 and 2 meter the continuation rule.
type nodeTag uint8

const (
	tagNone nodeTag = iota
	tag0
	tag1
	tag2
)

// node is one open formula of the derivation tree.
type node struct {
	atom term.Atom
	tag  nodeTag
	// obligations are indices into search.obls: every expansion requires
	// an identification somewhere in its subtree (the paper's
	// productivity cut), and these are the obligations this node's
	// subtree can still satisfy.
	obligations []int
	// depth counts rule expansions on the path to this node.
	depth int
	// untyped counts undisciplined recursive rule applications on the
	// path (the §5.3 bounded mode).
	untyped int
}

// Where the query spells a user variable. Unifying a subject-only
// variable with a hypothesis-only one does not narrow the answer.
const (
	inSubject uint8 = 1 + iota
	inHypothesis
	inBoth
)

// search carries the backtracking state of one describe evaluation.
type search struct {
	d       *Describer
	gov     *governor.Governor
	alg2    bool
	typed   bool // Algorithm 2's substitution guard has predicates to watch
	table   ruleTable
	subject term.Atom
	hypOrd  []indexedAtom
	hypCmp  []indexedAtom

	// The user's variables: as a set, and listed with their classes.
	userVars  map[term.Term]bool
	userList  []term.Term
	userClass []uint8

	rn term.Renamer

	// Path state (saved/restored around choices). b is the substitution
	// of the whole search: a choice binds in place and undoes on return.
	b         bindings
	leaves    term.Formula
	treeAtoms []term.Atom
	viaRules  []term.Rule
	obls      []bool
	usedHyp   []bool // by hypothesis position

	// Stacks of what a node records before its identification attempts:
	// the user variables' values and the typing conflicts. A node pushes,
	// its subtree pushes above, and the node pops on return.
	vals      []term.Term
	conflicts []string
	positions map[predVar]int // scratch of conflictedPreds

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
func (s *search) run() error {
	s.treeAtoms = append(s.treeAtoms, s.subject)

	// Root identification (Example 6's first answer).
	if s.typed {
		s.conflicts = s.conflictedPreds(s.conflicts)
	}
	untouched := s.conflicts
	for _, h := range s.hypOrd {
		if !s.b.unify(s.subject, h.atom) {
			continue
		}
		if s.typed && !s.typedOK(untouched) {
			s.b.undo(0)
			continue
		}
		s.usedHyp[h.idx] = true
		s.anyProductive = true
		if err := s.emit(); err != nil {
			return err
		}
		s.usedHyp[h.idx] = false
		s.b.undo(0)
	}
	s.conflicts = s.conflicts[:0]

	// Root rule expansions.
	type pending struct {
		rule  term.Rule
		fresh term.Rule
	}
	var unproductive []pending
	for _, e := range s.table[s.subject.Pred] {
		fresh := s.rn.RenameRule(*e.rule)
		if !s.b.unify(s.subject, fresh.Head) {
			continue
		}
		before := len(s.answers)
		beforeDiscarded := s.discarded
		agenda := s.childNodes(fresh.Body, e, node{})
		s.viaRules = append(s.viaRules, *e.rule)
		s.treeAtoms = append(s.treeAtoms, fresh.Body...)
		oblID := len(s.obls)
		s.obls = append(s.obls, false)
		for i := range agenda {
			agenda[i].obligations = []int{oblID}
		}
		if err := s.step(agenda); err != nil {
			return err
		}
		s.obls = s.obls[:oblID]
		s.treeAtoms = s.treeAtoms[:len(s.treeAtoms)-len(fresh.Body)]
		s.viaRules = s.viaRules[:len(s.viaRules)-1]
		s.b.undo(0)
		if len(s.answers) != before || s.discarded != beforeDiscarded {
			// A completion existed — even one discarded for contradicting
			// the hypothesis counts as productive (§4's special answer).
			s.anyProductive = true
		} else if !s.anyProductive {
			unproductive = append(unproductive, pending{rule: *e.rule, fresh: fresh})
		}
	}

	// One-level answers for unproductive rules, when nothing was
	// productive anywhere (§4's exception; Example 4). Unifying the
	// subject with the same renamed head again gives the bindings the
	// expansion started from.
	if !s.anyProductive {
		for _, p := range unproductive {
			s.b.unify(s.subject, p.fresh.Head)
			s.leaves = append(s.leaves, p.fresh.Body...)
			s.viaRules = append(s.viaRules, p.rule)
			if err := s.emit(); err != nil {
				return err
			}
			s.viaRules = s.viaRules[:len(s.viaRules)-1]
			s.leaves = s.leaves[:len(s.leaves)-len(p.fresh.Body)]
			s.b.undo(0)
		}
	}
	return nil
}

// step processes the agenda depth-first (leftmost open formula first).
func (s *search) step(agenda []node) error {
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
		return s.emit()
	}
	q := agenda[0]
	rest := agenda[1:]

	// Comparison formulas are never identified and never expanded (§4):
	// they drop to the leaves and meet the hypothesis in the post-pass.
	if term.IsComparison(q.atom) {
		s.leaves = append(s.leaves, q.atom)
		err := s.step(rest)
		s.leaves = s.leaves[:len(s.leaves)-1]
		return err
	}

	// Choice 1: identify with a hypothesis conjunct. Away from the root,
	// an identification that would constrain the user's variables (bind
	// two of them together, or bind one to a constant) is skipped: such
	// bindings narrow the answer's head and belong only to root
	// identifications (Example 6's `X = databases`). This choice of
	// interpretation reproduces the paper's displayed outputs.
	//
	// Every attempt starts from the same bindings, so what the two guards
	// compare against — the user variables' values and the typing
	// conflicts before the attempt — is recorded once per node, at the
	// first conjunct that could unify at all.
	identified, recorded := false, false
	valMark, conflictMark := len(s.vals), len(s.conflicts)
	var userVals []term.Term
	var conflicts []string
	for _, h := range s.hypOrd {
		if h.atom.Pred != q.atom.Pred || len(h.atom.Args) != len(q.atom.Args) {
			continue
		}
		if !recorded {
			recorded = true
			s.vals = s.userValues(s.vals)
			userVals = s.vals[valMark:]
			if s.typed {
				s.conflicts = s.conflictedPreds(s.conflicts)
				conflicts = s.conflicts[conflictMark:]
			}
		}
		mark := s.b.mark()
		if !s.b.unify(q.atom, h.atom) {
			continue
		}
		if s.constrainsUserVars(userVals) || s.typed && !s.typedOK(conflicts) {
			s.b.undo(mark)
			continue
		}
		identified = true
		sat := s.satisfy(q.obligations)
		wasUsed := s.usedHyp[h.idx]
		s.usedHyp[h.idx] = true
		if err := s.step(rest); err != nil {
			return err
		}
		s.usedHyp[h.idx] = wasUsed
		s.unsatisfy(sat)
		s.b.undo(mark)
	}
	s.vals, s.conflicts = s.vals[:valMark], s.conflicts[:conflictMark]

	// Choice 2: expand with each admissible rule. The expansion carries a
	// new obligation: its subtree must identify something, or the branch
	// is cut (the paper's "subtrees without hypothesis leaves are cut off
	// below their subtree roots"). With no identification targets at all,
	// no expansion can ever be productive — skip the choice entirely,
	// which also keeps hypothesis-free describes of recursive subjects
	// linear over the original rules.
	if q.depth < s.d.opts.MaxDepth && len(s.hypOrd) > 0 {
		for _, e := range s.table[q.atom.Pred] {
			if !s.ruleAllowed(q, e) {
				continue
			}
			fresh := s.rn.RenameRule(*e.rule)
			mark := s.b.mark()
			if !s.b.unify(q.atom, fresh.Head) {
				continue
			}
			children := s.childNodes(fresh.Body, e, q)
			oblID := len(s.obls)
			s.obls = append(s.obls, false)
			inherited := append(append([]int{}, q.obligations...), oblID)
			for i := range children {
				children[i].obligations = inherited
			}
			s.treeAtoms = append(s.treeAtoms, fresh.Body...)
			s.viaRules = append(s.viaRules, *e.rule)
			next := append(children, rest...)
			if err := s.step(next); err != nil {
				return err
			}
			s.viaRules = s.viaRules[:len(s.viaRules)-1]
			s.treeAtoms = s.treeAtoms[:len(s.treeAtoms)-len(fresh.Body)]
			s.obls = s.obls[:oblID]
			s.b.undo(mark)
		}
	}

	// Choice 3: remain a leaf — only when no identification was possible,
	// which keeps answers at the paper's displayed generality (a formula
	// that can meet the hypothesis must meet it).
	if !identified {
		s.leaves = append(s.leaves, q.atom)
		err := s.step(rest)
		s.leaves = s.leaves[:len(s.leaves)-1]
		return err
	}
	return nil
}

// userValues appends the user variables' current values to dst.
func (s *search) userValues(dst []term.Term) []term.Term {
	for _, v := range s.userList {
		dst = append(dst, s.b.walk(v))
	}
	return dst
}

// constrainsUserVars reports whether the bindings narrow the user's
// variables relative to their values before: a user variable newly bound
// to a constant, or two user variables newly unified. Unifying a
// subject-only variable with a hypothesis-only variable is NOT
// constraining — that is the natural reading when the query spells the
// subject and the hypothesis with different names (and what the wildcard
// extension relies on).
func (s *search) constrainsUserVars(before []term.Term) bool {
	mark := len(s.vals)
	s.vals = s.userValues(s.vals)
	after := s.vals[mark:]
	s.vals = s.vals[:mark]
	for i := range after {
		if after[i].IsConst() && !before[i].IsConst() {
			return true
		}
		for j := 0; j < i; j++ {
			ci, cj := s.userClass[i], s.userClass[j]
			crossGroup := ci != cj && ci != inBoth && cj != inBoth
			if after[i] == after[j] && before[i] != before[j] && !crossGroup {
				return true
			}
		}
	}
	return false
}

// childNodes builds agenda nodes for a rule's body, assigning Algorithm 2
// tags according to the rule kind (§5.3, Figure 3 boxes 9a–9e).
func (s *search) childNodes(body term.Formula, e ruleEntry, parent node) []node {
	kind := transform.KindOrdinary
	untyped := parent.untyped
	if s.alg2 {
		kind = e.kind
		if e.untypedRec {
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
func (s *search) ruleAllowed(q node, e ruleEntry) bool {
	if !s.alg2 {
		return true
	}
	switch e.kind {
	case transform.KindRT, transform.KindRC:
		return q.tag != tag0
	}
	if e.untypedRec {
		return q.untyped < s.d.opts.UntypedBound
	}
	return true
}

// typedOK implements Algorithm 2's substitution guard: the bindings of
// an attempt are disqualified when they cause two occurrences of a
// (transformed) recursive predicate somewhere in the tree or hypothesis
// to hold the same variable at different positions (§5.3; sufficient
// condition of footnote 4). A predicate that already exhibited swapped
// positions before the attempt — because an ordinary rule like
// `roundtrip(X, Y) ← reachable(X, Y) ∧ reachable(Y, X)` is legitimately
// untyped with respect to it — is exempt: the guard only rejects
// conflicts the attempt introduces.
func (s *search) typedOK(before []string) bool {
	mark := len(s.conflicts)
	s.conflicts = s.conflictedPreds(s.conflicts)
	after := s.conflicts[mark:]
	s.conflicts = s.conflicts[:mark]
	for _, pred := range after {
		if !slices.Contains(before, pred) {
			return false
		}
	}
	return true
}

// predVar keys the positions scratch of conflictedPreds.
type predVar struct {
	pred string
	v    term.Term
}

// conflictedPreds appends to dst the recursive predicates for which some
// variable occupies two distinct argument positions across the tree and
// hypothesis atoms, under the current bindings.
func (s *search) conflictedPreds(dst []string) []string {
	if s.positions == nil {
		s.positions = make(map[predVar]int)
	}
	clear(s.positions)
	found := len(dst)
	check := func(a term.Atom) {
		if !s.d.recPreds[a.Pred] || slices.Contains(dst[found:], a.Pred) {
			return
		}
		for i, t := range a.Args {
			if t = s.b.walk(t); !t.IsVar() {
				continue
			}
			k := predVar{a.Pred, t}
			if prev, ok := s.positions[k]; ok && prev != i {
				dst = append(dst, a.Pred)
				return
			}
			s.positions[k] = i
		}
	}
	for _, a := range s.treeAtoms {
		check(a)
	}
	for _, h := range s.hypOrd {
		check(h.atom)
	}
	return dst
}

// satisfy marks obligations satisfied, returning the ones newly set so
// the caller can restore them.
func (s *search) satisfy(ids []int) []int {
	var newly []int
	for _, id := range ids {
		if !s.obls[id] {
			s.obls[id] = true
			newly = append(newly, id)
		}
	}
	return newly
}

func (s *search) unsatisfy(ids []int) {
	for _, id := range ids {
		s.obls[id] = false
	}
}

// emit assembles one answer from the current path state, applies the §4
// comparison post-pass, and records it (deduplicated).
func (s *search) emit() error {
	sigma := s.b.m
	body := sigma.ApplyFormula(s.leaves)

	// User-variable bindings: rename fresh images back to the user's
	// variable where possible, otherwise surface the binding as an
	// equality atom (Example 6's `X = databases`). Hypothesis variables
	// are treated like subject variables — a binding imposed on them is
	// part of the answer's meaning. Subject variables take rename
	// priority.
	var equalities term.Formula
	rename := term.NewSubst(2)
	for _, v := range s.userList {
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
	for idx, u := range s.usedHyp {
		if u {
			used = append(used, idx)
		}
	}
	identified := len(used)
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
	if len(used) > identified {
		slices.Sort(used)
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
	ans.prettify(s.userVars)
	key := ans.key(s.userVars)
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	s.answers = append(s.answers, ans)
	return nil
}
