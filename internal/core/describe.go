package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/governor"
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
	// graph is the dependency analysis of the original rules, which it
	// holds.
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

	// searches pools the scratch of finished searches (*search).
	searches sync.Pool
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

// New builds a describer for the rule set: Build over a graph of its
// own. It is kept for the benchmark harness (bench/), which pins it until
// ROADMAP item 1(c).
func New(rules []term.Rule, keys map[string][][]int, opts Options) (*Describer, error) {
	return Build(depgraph.New(rules), keys, opts)
}

// Build builds a describer for the rules of the dependency graph, which
// it keeps and shares. keys may be nil.
func Build(g *depgraph.Graph, keys map[string][][]int, opts Options) (*Describer, error) {
	trans, err := transform.Of(g)
	if err != nil {
		return nil, err
	}
	rules := g.Rules()
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
		graph:    g,
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
func (d *Describer) Rules() []term.Rule { return d.graph.Rules() }

// DescribeContext evaluates `describe subject where hypothesis` (§3.2).
// The subject must be an IDB predicate (it has at least one rule). The
// hypothesis is a positive formula; its comparison conjuncts drive the §4
// comparison post-pass, its ordinary conjuncts are identification
// targets.
//
// The algorithm selection follows the paper: when the subject predicate
// is not recursive and does not depend on a recursive predicate,
// Algorithm 1 runs over the original rules; otherwise Algorithm 2 runs
// over the transformed rules with tags and typed substitutions.
//
// The search runs under a query governor: it checks the context
// cooperatively (amortized, once per tick interval of search steps) and
// limits.MaxDescribeNodes bounds its steps as a hard error — unlike
// Options.MaxNodes, which truncates and returns the answers found so far.
// A breach surfaces as an errors.Is/As-able error (governor.ErrCanceled,
// context.DeadlineExceeded, *governor.LimitError); an internal panic is
// contained as a *governor.PanicError.
func (d *Describer) DescribeContext(ctx context.Context, subject term.Atom, hypothesis term.Formula, limits governor.Limits) (ans *Answers, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, limits)
	defer cancel()
	ans = &Answers{Subject: subject, Hypothesis: hypothesis}
	if ans.Formulas, ans.Contradiction, err = d.describe(gov, &ans.SearchStats, subject, hypothesis); err != nil {
		return nil, err
	}
	return ans, nil
}

// describe runs one governed search of a statement whose earlier
// searches st records: its nodes count against the statement's
// MaxDescribeNodes quota and its work is added to st. It returns the
// search's answers, redundancy-eliminated, and whether it found the
// hypothesis contradicting the knowledge base (§4, end).
func (d *Describer) describe(gov *governor.Governor, st *SearchStats, subject term.Atom, hypothesis term.Formula) ([]Answer, bool, error) {
	mustBeIDB(d.graph, subject)
	start := time.Now()
	s := d.newSearch(gov, subject, hypothesis)
	defer d.putSearch(s)
	// A hypothesis whose comparisons no values satisfy contradicts the
	// knowledge base before any rule is tried: the special answer (§4).
	var sat bool
	if s.cmps, sat = satisfiable(s.cmps, hypothesis); !sat {
		return nil, true, nil
	}
	s.spent = st.Nodes
	err := s.run()
	searched := time.Now()
	st.Nodes += s.nodes
	st.SearchWall += searched.Sub(start)
	if st.Algorithm = max(st.Algorithm, 1); s.alg2 {
		st.Algorithm = 2
	}
	st.Truncated = st.Truncated || s.truncated
	if err != nil {
		return nil, false, err
	}
	formulas := eliminateRedundant(s.answers, s.userList)
	st.PostWall += time.Since(searched)
	return formulas, len(formulas) == 0 && s.discarded > 0, nil
}

// mustBeIDB panics unless subject is a derived (IDB) predicate: callers
// refuse any other subject first (kb's statement check).
func mustBeIDB(g *depgraph.Graph, subject term.Atom) {
	if len(g.RulesFor(subject.Pred)) == 0 {
		panic(fmt.Sprintf("core: describe of %v, whose predicate is not an IDB predicate", subject))
	}
}

// satisfiable reports whether some values satisfy every comparison of the
// hypothesis h, which it collects in scratch, returned for reuse.
func satisfiable(scratch, h term.Formula) (term.Formula, bool) {
	scratch = scratch[:0]
	for _, a := range h {
		if term.IsComparison(a) {
			scratch = append(scratch, a)
		}
	}
	sat, err := builtin.Sat(scratch)
	return scratch, sat && err == nil // err: never, as scratch holds only comparisons
}

// newSearch sets up the search of one describe statement over scratch
// an earlier search left in the describer's pool; putSearch returns it.
func (d *Describer) newSearch(gov *governor.Governor, subject term.Atom, hypothesis term.Formula) *search {
	s, _ := d.searches.Get().(*search)
	if s == nil {
		s = &search{seen: make(map[string]bool)}
	}
	s.hypOrd, s.hypCmp = splitHypothesis(hypothesis)
	alg2 := d.graph.DependsOnRecursive(subject.Pred)
	if len(s.hypOrd) == 0 {
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
	s.d, s.gov, s.alg2, s.typed, s.table, s.subject = d, gov, alg2, alg2 && len(d.recPreds) > 0, table, subject
	s.usedHyp = append(s.usedHyp[:0], make([]bool, len(hypothesis))...)
	// The user's variables, each classed by where the query spells it:
	// the subject's first, then those of the hypothesis's ordinary
	// conjuncts, then those of its comparisons (the order emit renames in).
	s.userList, s.userClass = subject.Vars(s.userList[:0]), s.userClass[:0]
	for range s.userList {
		s.userClass = append(s.userClass, inSubject)
	}
	for _, hyp := range [2][]indexedAtom{s.hypOrd, s.hypCmp} {
		for _, h := range hyp {
			for _, v := range h.atom.Args {
				if !v.IsVar() {
					continue
				}
				if i := slices.Index(s.userList, v); i >= 0 {
					if s.userClass[i] == inSubject {
						s.userClass[i] = inBoth
					}
					continue
				}
				s.userList = append(s.userList, v)
				s.userClass = append(s.userClass, inHypothesis)
			}
		}
	}
	return s
}

// putSearch empties the search and returns its scratch to the pool: the
// answers went to the caller, and everything else is cut back to length
// zero, keeping its room for the next statement.
func (d *Describer) putSearch(s *search) {
	s.d, s.gov, s.table, s.answers = nil, nil, nil, nil
	s.rn.Release(0)
	s.b.reset()
	s.leaves, s.treeAtoms, s.viaRules, s.obls = s.leaves[:0], s.treeAtoms[:0], s.viaRules[:0], s.obls[:0]
	s.vals, s.conflicts, s.satisfied, s.positions = s.vals[:0], s.conflicts[:0], s.satisfied[:0], s.positions[:0]
	s.ruleTerms, s.ruleAtoms, s.agendas, s.oblStack = s.ruleTerms[:0], s.ruleAtoms[:0], s.agendas[:0], s.oblStack[:0]
	clear(s.seen)
	s.discarded, s.anyProductive, s.truncated, s.nodes, s.spent = 0, false, false, 0, 0
	d.searches.Put(s)
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

	// The user's variables, listed with their classes. They are few: a
	// scan of the list is what tells a user variable.
	userList  []term.Term
	userClass []uint8

	// rn renames rules apart, its scratch reused per expansion. An
	// expansion's numbers are released when its choice returns, so the
	// frame's slots stay as few as the variables of one branch.
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
	// its subtree pushes above, and the node pops on return. satisfied
	// holds the obligations identifications set, popped the same way.
	vals      []term.Term
	conflicts []string
	satisfied []int
	positions []position // scratch of conflictedPreds

	// Stacks every expansion carves from and pops when its choice
	// returns: the renamed rule's arguments and body atoms, the agenda
	// the expansion passes on, and the obligations its children inherit.
	// The search is depth-first, so expansions end last in, first out.
	ruleTerms []term.Term
	ruleAtoms term.Formula
	agendas   []node
	oblStack  []int

	// Scratch reused by every expansion and every answer of the search;
	// no answer refers to it, so the pool hands it to the next statement.
	// emit builds its atoms over terms and keys them in keys, and
	// compiles α, and then α without one of its comparisons, into net.
	terms         []term.Term
	full, alpha   term.Formula
	removed, cmps term.Formula
	renames       []renamePair
	used          []int
	keys          keyer
	net           builtin.Network

	answers       []Answer
	seen          map[string]bool
	discarded     int
	anyProductive bool
	truncated     bool
	nodes         int
	spent         int // nodes the statement's earlier searches expanded
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

	// Root rule expansions. A rule kept for its one-level answer keeps
	// its variant on the stacks, and the next root rule pushes above it.
	type pending struct {
		rule  *term.Rule
		fresh term.Rule
	}
	var unproductive []pending
	for _, e := range s.table[s.subject.Pred] {
		fresh, sm := s.variant(e.rule)
		if !s.b.unify(s.subject, fresh.Head) {
			s.release(sm)
			continue
		}
		before := len(s.answers)
		beforeDiscarded := s.discarded
		if err := s.descend(fresh, e, node{}, nil); err != nil {
			return err
		}
		s.b.undo(0)
		if len(s.answers) != before || s.discarded != beforeDiscarded {
			// A completion existed — even one discarded for contradicting
			// the hypothesis counts as productive (§4's special answer).
			s.anyProductive = true
		} else if !s.anyProductive {
			unproductive = append(unproductive, pending{e.rule, fresh})
			continue
		}
		s.release(sm)
	}

	// One-level answers for unproductive rules, when nothing was
	// productive anywhere (§4's exception; Example 4). Unifying the
	// subject with the same renamed head again gives the bindings the
	// expansion started from.
	if !s.anyProductive {
		for _, p := range unproductive {
			s.b.unify(s.subject, p.fresh.Head)
			s.leaves = append(s.leaves, p.fresh.Body...)
			s.viaRules = append(s.viaRules, *p.rule)
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
	if err := s.gov.CheckDescribeNodes(s.spent + s.nodes); err != nil {
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
			fresh, sm := s.variant(e.rule)
			mark := s.b.mark()
			if s.b.unify(q.atom, fresh.Head) {
				if err := s.descend(fresh, e, q, rest); err != nil {
					return err
				}
				s.b.undo(mark)
			}
			s.release(sm)
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

// stackMark is where an expansion's variant starts on the stacks and in
// the renamer's numbering.
type stackMark struct {
	num          uint64
	terms, atoms int
}

// variant renames the rule apart onto the stacks; release pops it.
func (s *search) variant(r *term.Rule) (term.Rule, stackMark) {
	sm := stackMark{s.rn.Mark(), len(s.ruleTerms), len(s.ruleAtoms)}
	var fresh term.Rule
	fresh, s.ruleTerms, s.ruleAtoms = s.rn.AppendRule(*r, s.ruleTerms, s.ruleAtoms)
	return fresh, sm
}

// release pops a variant and hands its numbers out again: nothing bound
// or pending refers to its variables once its choice has returned.
func (s *search) release(sm stackMark) {
	s.rn.Release(sm.num)
	s.ruleTerms, s.ruleAtoms = s.ruleTerms[:sm.terms], s.ruleAtoms[:sm.atoms]
}

// descend searches below the expansion of parent's atom by the variant
// fresh of e's rule, whose head the bindings have unified with it. The
// expansion carries a new obligation, which its children inherit with
// parent's; their agenda is the children, then rest. All of it is
// carved from the stacks and popped on return.
func (s *search) descend(fresh term.Rule, e ruleEntry, parent node, rest []node) error {
	oblID := len(s.obls)
	s.obls = append(s.obls, false)
	obls, agendas := len(s.oblStack), len(s.agendas)
	s.oblStack = append(append(s.oblStack, parent.obligations...), oblID)
	inherited := s.oblStack[obls:len(s.oblStack):len(s.oblStack)]
	s.agendas = append(s.appendChildren(s.agendas, fresh.Body, e, parent, inherited), rest...)
	s.treeAtoms = append(s.treeAtoms, fresh.Body...)
	s.viaRules = append(s.viaRules, *e.rule)
	err := s.step(s.agendas[agendas:len(s.agendas):len(s.agendas)])
	s.viaRules = s.viaRules[:len(s.viaRules)-1]
	s.treeAtoms = s.treeAtoms[:len(s.treeAtoms)-len(fresh.Body)]
	s.agendas, s.oblStack = s.agendas[:agendas], s.oblStack[:obls]
	s.obls = s.obls[:oblID]
	return err
}

// appendChildren appends agenda nodes for a rule's body to dst, each
// holding the obligations, with Algorithm 2 tags assigned according to
// the rule kind (§5.3, Figure 3 boxes 9a–9e).
func (s *search) appendChildren(dst []node, body term.Formula, e ruleEntry, parent node, obligations []int) []node {
	kind := transform.KindOrdinary
	untyped := parent.untyped
	if s.alg2 {
		kind = e.kind
		if e.untypedRec {
			untyped++
		}
	}
	from := len(dst)
	for _, a := range body {
		dst = append(dst, node{atom: a, obligations: obligations, depth: parent.depth + 1, untyped: untyped})
	}
	children := dst[from:]
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
	return dst
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

// position is a variable at an argument position of a recursive
// predicate: one entry of conflictedPreds' scratch.
type position struct {
	v    term.Term
	pred string
	i    int
}

// conflictedPreds appends to dst the recursive predicates for which some
// variable occupies two distinct argument positions across the tree and
// hypothesis atoms, under the current bindings. The positions seen are a
// list scanned per argument: a branch holds few recursive atoms.
func (s *search) conflictedPreds(dst []string) []string {
	s.positions = s.positions[:0]
	found := len(dst)
	check := func(a term.Atom) {
		if !s.d.recPreds[a.Pred] || slices.Contains(dst[found:], a.Pred) {
			return
		}
	args:
		for i, t := range a.Args {
			if t = s.b.walk(t); !t.IsVar() {
				continue
			}
			for _, p := range s.positions {
				if p.v == t && p.pred == a.Pred {
					if p.i != i {
						dst = append(dst, a.Pred)
						return
					}
					continue args
				}
			}
			s.positions = append(s.positions, position{t, a.Pred, i})
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

// satisfy marks obligations satisfied, pushing the ones newly set so
// unsatisfy can restore them, and returns the mark to pop back to.
func (s *search) satisfy(ids []int) int {
	mark := len(s.satisfied)
	for _, id := range ids {
		if !s.obls[id] {
			s.obls[id] = true
			s.satisfied = append(s.satisfied, id)
		}
	}
	return mark
}

func (s *search) unsatisfy(mark int) {
	for _, id := range s.satisfied[mark:] {
		s.obls[id] = false
	}
	s.satisfied = s.satisfied[:mark]
}

// emit assembles one answer from the current path state, applies the §4
// comparison post-pass, and records it (deduplicated). Everything before
// the duplicate check lives in the search's scratch: the bindings and the
// user-variable rename are applied to each leaf once, into one term
// array, α is compiled into a network the search keeps, and the answer
// is keyed before it is built, so an answer already seen allocates
// nothing.
func (s *search) emit() error {
	s.terms, s.full, s.alpha, s.renames = s.terms[:0], s.full[:0], s.alpha[:0], s.renames[:0]

	// User-variable bindings: rename fresh images back to the user's
	// variable where possible, otherwise surface the binding as an
	// equality atom (Example 6's `X = databases`). Hypothesis variables
	// are treated like subject variables — a binding imposed on them is
	// part of the answer's meaning. Subject variables take rename
	// priority.
	for _, v := range s.userList {
		t := s.b.walk(v)
		if t == v {
			continue
		}
		if t.IsVar() && !slices.Contains(s.userList, t) {
			if prev, ok := lookupRename(s.renames, t); ok {
				// Two user variables share an image: keep one rename,
				// surface the other as an equality.
				s.full = append(s.full, s.equality(v, prev))
			} else {
				s.renames = append(s.renames, renamePair{t, v})
			}
			continue
		}
		s.full = append(s.full, s.equality(v, t))
	}
	for _, a := range s.leaves {
		s.full = append(s.full, s.applied(a))
	}

	// §4 comparison post-pass. α is the hypothesis's comparison part under
	// the answer's substitution (and the rename), compiled once and only
	// when the answer has a comparison to test against it.
	for _, c := range s.hypCmp {
		s.alpha = append(s.alpha, s.applied(c.atom))
	}
	kept := s.full[:0]
	s.removed = s.removed[:0]
	compiled := false
	for _, a := range s.full {
		if !term.IsComparison(a) {
			kept = append(kept, a)
			continue
		}
		if !compiled {
			if err := s.net.Reset(s.alpha); err != nil {
				return err
			}
			compiled = true
		}
		implied, err := s.net.Entails(a)
		if err != nil {
			return err
		}
		if implied {
			s.removed = append(s.removed, a)
			continue
		}
		kept = append(kept, a)
	}
	// Discard the answer when the hypothesis contradicts its comparisons.
	if len(s.alpha) > 0 {
		s.cmps = s.cmps[:0]
		for _, a := range kept {
			if term.IsComparison(a) {
				s.cmps = append(s.cmps, a)
			}
		}
		if len(s.cmps) > 0 {
			contra, err := builtin.Contradicts(s.alpha, s.cmps)
			if err != nil {
				return err
			}
			if contra {
				s.discarded++
				return nil
			}
		}
	}

	used := s.used[:0]
	for idx, u := range s.usedHyp {
		if u {
			used = append(used, idx)
		}
	}
	identified := len(used)
	// Comparison hypothesis conjuncts count as used when their removal
	// would lose a β-elimination.
	if len(s.removed) > 0 {
		for i, c := range s.hypCmp {
			s.cmps = append(append(s.cmps[:0], s.alpha[:i]...), s.alpha[i+1:]...)
			if err := s.net.Reset(s.cmps); err != nil {
				return err
			}
			for _, beta := range s.removed {
				still, err := s.net.Entails(beta)
				if err != nil {
					return err
				}
				if !still {
					used = append(used, c.idx)
					break
				}
			}
		}
	}
	if len(used) > identified {
		slices.Sort(used)
	}
	s.used = used

	// Prefer the original predicate over the artificial step predicate
	// when the modified transformation applies (§5.3).
	if s.alg2 && !s.d.opts.KeepSteps {
		for i, a := range kept {
			if rewritten, ok := s.d.trans.RewriteStepAtom(a); ok {
				kept[i] = rewritten
			}
		}
	}

	// The key of the un-prettified body is the key of the answer:
	// prettify renames non-user variables injectively and never to a
	// user variable's name. Only a new answer is built.
	key := s.keys.key(s.subject, kept, s.userList)
	if s.seen[string(key)] {
		return nil
	}
	s.seen[string(key)] = true
	ans := Answer{
		Head:           s.subject,
		Body:           kept,
		UsedHypothesis: append(make([]int, 0, len(used)), used...),
		ViaRules:       append([]term.Rule(nil), s.viaRules...),
	}
	ans.prettify(s.userList) // copies head and body out of the scratch
	s.answers = append(s.answers, ans)
	return nil
}

// applied returns the atom under the bindings and then the user-variable
// rename, its arguments appended to the scratch terms.
func (s *search) applied(a term.Atom) term.Atom {
	from := len(s.terms)
	for _, t := range a.Args {
		if t = s.b.walk(t); t.IsVar() {
			t, _ = lookupRename(s.renames, t)
		}
		s.terms = append(s.terms, t)
	}
	return term.Atom{Pred: a.Pred, Args: s.terms[from:len(s.terms):len(s.terms)]}
}

// equality returns the atom x = y over the scratch terms.
func (s *search) equality(x, y term.Term) term.Atom {
	s.terms = append(s.terms, x, y)
	n := len(s.terms)
	return term.Atom{Pred: term.PredEq, Args: s.terms[n-2 : n : n]}
}
