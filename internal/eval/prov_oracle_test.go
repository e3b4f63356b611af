package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"kdb/internal/builtin"
	"kdb/internal/governor"
	"kdb/internal/prov"
	"kdb/internal/term"
)

// The eager recorder: how witnesses were recorded before a witness became
// a rule id and a copy of the frame. Every newly witnessed fact has its
// head copied, its solution turned into a map substitution, each body
// atom instantiated by Apply, and its display rule keyed; trees are then
// built from those witnesses. It is the oracle prov.Recorder is held to.

type eagerWitness struct {
	ruleID int
	body   []term.Atom
}

type eagerRecorder struct {
	witnesses map[string]*eagerWitness // fact key → first witness
	facts     []term.Atom              // the witnessed facts, in record order
	ruleIDs   map[string]int           // display rule key → index into rules
	rules     []term.Rule
}

func newEagerRecorder() *eagerRecorder {
	return &eagerRecorder{witnesses: make(map[string]*eagerWitness), ruleIDs: make(map[string]int)}
}

// record stores the first witness for fact: rule fired under s, and body
// is the rule body as solved. It returns the number of witnessed facts.
func (r *eagerRecorder) record(fact term.Atom, rule term.Rule, body term.Formula, s term.Subst) int {
	key := fact.Key()
	if _, dup := r.witnesses[key]; dup {
		return len(r.witnesses)
	}
	w := &eagerWitness{}
	for _, a := range body {
		w.body = append(w.body, s.Apply(a))
	}
	ruleKey := rule.Key()
	id, ok := r.ruleIDs[ruleKey]
	if !ok {
		id = len(r.rules)
		r.ruleIDs[ruleKey] = id
		r.rules = append(r.rules, rule)
	}
	w.ruleID = id
	r.witnesses[key] = w
	r.facts = append(r.facts, fact)
	return len(r.witnesses)
}

// explain builds the trees of facts from the eager witnesses, as
// prov.Recorder.Explain does from its own.
func (r *eagerRecorder) explain(subject term.Atom, facts []term.Atom, isEDB func(term.Atom) bool, maxNodes int) *prov.Explanation {
	e := &prov.Explanation{Subject: subject, Entries: len(r.witnesses)}
	ids := make(map[int]int)
	onPath := make(map[string]bool)
	var build func(a term.Atom) *prov.Node
	build = func(a term.Atom) *prov.Node {
		e.Nodes++
		if maxNodes > 0 && e.Nodes > maxNodes {
			e.Truncated = true
			return &prov.Node{Fact: a, Kind: prov.NodeTruncated}
		}
		if term.IsComparison(a) {
			return &prov.Node{Fact: a, Kind: prov.NodeBuiltin}
		}
		key := a.Key()
		if onPath[key] {
			return &prov.Node{Fact: a, Kind: prov.NodeCycle}
		}
		if isEDB(a) {
			return &prov.Node{Fact: a, Kind: prov.NodeEDB}
		}
		w := r.witnesses[key]
		if w == nil {
			return &prov.Node{Fact: a, Kind: prov.NodeUnknown}
		}
		id, ok := ids[w.ruleID]
		if !ok {
			e.Rules = append(e.Rules, r.rules[w.ruleID])
			id = len(e.Rules)
			ids[w.ruleID] = id
		}
		n := &prov.Node{Fact: a, Kind: prov.NodeDerived, Rule: id}
		onPath[key] = true
		for _, p := range w.body {
			n.Children = append(n.Children, build(p))
		}
		delete(onPath, key)
		return n
	}
	for _, f := range facts {
		e.Trees = append(e.Trees, build(f))
	}
	return e
}

// frameSubst is the solution a runner's frame holds, as a substitution.
func frameSubst(r *runner) term.Subst {
	s := term.NewSubst(len(r.prog.vars))
	for i, v := range r.prog.vars {
		if slot := r.prog.slots[i]; slot >= 0 {
			s[v] = r.frame[slot]
		}
	}
	return s
}

// tapEager hands every solution recordProv is given to oracle as well,
// until the returned function is called.
func tapEager(oracle *eagerRecorder) (untap func()) {
	recordTap = func(r *runner) {
		oracle.record(term.NewAtom(r.head.Pred, r.head.Args...), r.rule, r.prog.body, frameSubst(r))
	}
	return func() { recordTap = nil }
}

// provRun answers q on mk with a recorder and the eager oracle tapped
// beside it, under MaxProvenanceEntries max (0: none).
func provRun(mk func(Input, ...EngineOption) Engine, in Input, q Query, max int) (*Result, *prov.Recorder, *eagerRecorder, error) {
	rec, oracle := prov.NewRecorder(), newEagerRecorder()
	defer tapEager(oracle)()
	e := mk(in, WithProvenance(rec), WithLimits(governor.Limits{MaxProvenanceEntries: max}))
	res, err := e.RetrieveContext(context.Background(), q)
	return res, rec, oracle, err
}

// provDisagreement explains q's answers, every recorded fact and one
// fact nobody derived, on mk with a recorder and on the eager oracle fed
// the same solutions, and describes the first difference in the trees
// (text and JSON, under two node budgets), the entry counts or the
// limit error at MaxProvenanceEntries; "" if there is none.
func provDisagreement(mk func(Input, ...EngineOption) Engine, in Input, q Query, feat genFeatures) string {
	res, rec, oracle, err := provRun(mk, in, q, 0)
	if err != nil {
		return "" // judged by the answer oracle: nothing to explain
	}
	if rec.Len() != len(oracle.witnesses) {
		return fmt.Sprintf("recorded %d witnesses, the oracle %d", rec.Len(), len(oracle.witnesses))
	}
	facts := append(res.Atoms(q.Subject), oracle.facts...)
	facts = append(facts, term.NewAtom("nobody", term.Sym("derived")))
	isStored := func(a term.Atom) bool { return in.Store.Contains(a) }
	for _, budget := range []int{10000, 7} {
		got := rec.Explain(q.Subject, facts, isStored, budget)
		want := oracle.explain(q.Subject, facts, isStored, budget)
		if g, w := got.String(), want.String(); g != w {
			return fmt.Sprintf("budget %d: tree\n%s\nthe oracle's\n%s", budget, g, w)
		}
		gj, gerr := json.Marshal(got)
		wj, werr := json.Marshal(want)
		if gerr != nil || werr != nil || string(gj) != string(wj) {
			return fmt.Sprintf("budget %d: JSON %s (%v), the oracle's %s (%v)", budget, gj, gerr, wj, werr)
		}
		if got.Entries != want.Entries {
			return fmt.Sprintf("budget %d: %d entries, the oracle %d", budget, got.Entries, want.Entries)
		}
		countKinds(want.Trees, feat)
	}
	// The limit trips exactly when the oracle's count passes it.
	n := len(oracle.witnesses)
	for _, max := range []int{n - 1, n} {
		if max < 1 {
			continue
		}
		_, rec, oracle, err := provRun(mk, in, q, max)
		var le *governor.LimitError
		tripped := errors.As(err, &le)
		switch {
		case max < n && (!tripped || le.Kind != governor.LimitProvenance || le.Limit != int64(max)):
			return fmt.Sprintf("MaxProvenanceEntries %d of %d: err %v, want the provenance limit", max, n, err)
		case max == n && err != nil:
			return fmt.Sprintf("MaxProvenanceEntries %d of %d: err %v", max, n, err)
		case rec.Len() != len(oracle.witnesses):
			return fmt.Sprintf("MaxProvenanceEntries %d: recorded %d, the oracle %d", max, rec.Len(), len(oracle.witnesses))
		}
		if tripped {
			feat["provenance limit"]++
		}
	}
	return ""
}

func countKinds(nodes []*prov.Node, feat genFeatures) {
	for _, n := range nodes {
		feat[n.Kind.String()+" node"]++
		countKinds(n.Children, feat)
	}
}

// provCaseDisagreement is provDisagreement on every witness engine.
func provCaseDisagreement(t testing.TB, c genCase, feat genFeatures) string {
	for name, mk := range witnessEngines {
		if d := provDisagreement(mk, c.input(t), c.query, feat); d != "" {
			return name + ": " + d
		}
	}
	return ""
}

// TestProvenanceMatchesEagerOracle: on generated programs and on the
// shipped ones, the engine's recorder builds the trees the eager
// recorder builds from the same solutions, byte for byte in text and
// JSON, with the same entry count and the same provenance limit error.
func TestProvenanceMatchesEagerOracle(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	feat := make(genFeatures)
	for seed := 1; seed <= seeds; seed++ {
		g := newGenerator(int64(seed), make(genFeatures))
		c := g.generate()
		if provCaseDisagreement(t, c, feat) == "" {
			continue
		}
		small := shrink(c, func(d genCase) bool { return provCaseDisagreement(t, d, make(genFeatures)) != "" })
		t.Fatalf("seed %d: %s\nshrunk to:\n%v", seed, provCaseDisagreement(t, small, make(genFeatures)), small)
	}
	for _, c := range shippedCases(t) {
		in := load(t, c.src)
		for _, stmt := range c.stmts {
			for name, mk := range witnessEngines {
				if d := provDisagreement(mk, in, query(t, stmt), feat); d != "" {
					t.Errorf("%s, %s, %s: %s", strings.TrimSuffix(c.program, ".kdb"), stmt, name, d)
				}
			}
		}
	}
	// No engine makes a witness cycle: a fact's first witness only names
	// facts witnessed before it. prov's TestExplainCycleSafe builds one.
	for _, want := range []string{
		"derived node", "edb node", "builtin node", "unknown node", "truncated node",
		"provenance limit",
	} {
		if feat[want] == 0 {
			t.Errorf("no case had a %s", want)
		}
	}
}

// rederive checks that an explanation is a proof the store supports:
// every derived node is an instance of its displayed rule whose body
// atoms are its children, under one substitution, and every leaf is a
// stored fact or a comparison that holds. A subtree the node budget cut
// is not checked. It describes the first fault, or returns "", and
// counts the derived nodes it checked.
func rederive(e *prov.Explanation, stored func(term.Atom) bool, checked *int) string {
	var node func(n *prov.Node) string
	node = func(n *prov.Node) string {
		switch n.Kind {
		case prov.NodeTruncated:
			return ""
		case prov.NodeEDB:
			if !stored(n.Fact) {
				return fmt.Sprintf("leaf %v is not stored", n.Fact)
			}
			return ""
		case prov.NodeBuiltin:
			if ok, err := builtin.Eval(n.Fact); err != nil || !ok {
				if n.Fact.Pred == term.PredEq && n.Fact.Args[0].IsVar() && n.Fact.Args[1].IsVar() {
					return "" // two variables nothing binds: one value satisfies it
				}
				return fmt.Sprintf("comparison %v does not hold", n.Fact)
			}
			return ""
		case prov.NodeDerived:
		default:
			return fmt.Sprintf("%v is a %s node", n.Fact, n.Kind)
		}
		*checked++
		r := e.Rules[n.Rule-1]
		s, ok := term.Match(r.Head, n.Fact, nil)
		if !ok || len(r.Body) != len(n.Children) {
			return fmt.Sprintf("%v is not an instance of %v with %d children", n.Fact, r, len(n.Children))
		}
		for i, b := range r.Body {
			if c := n.Children[i].Fact; c.IsGround() {
				if s, ok = term.Match(b, c, s); !ok {
					return fmt.Sprintf("%v: child %v is not body atom %v of %v under %v", n.Fact, c, b, r, s)
				}
			}
		}
		for _, c := range n.Children {
			if d := node(c); d != "" {
				return d
			}
		}
		return ""
	}
	for _, tr := range e.Trees {
		if d := node(tr); d != "" {
			return d
		}
	}
	return ""
}

// rederiveDisagreement explains q's answers on every witness engine,
// recording every witness, and checks each explanation with rederive. A
// subject the qualifier defines (paper Example 2) has no witnesses of its
// own to explain, so such a statement is not checked.
func rederiveDisagreement(in Input, q Query, checked *int) string {
	if in.Store.Relation(q.Subject.Pred) == nil &&
		!slices.ContainsFunc(in.Rules, func(r term.Rule) bool { return r.Head.Pred == q.Subject.Pred }) {
		return ""
	}
	for name, mk := range witnessEngines {
		rec := prov.NewRecorder()
		res, err := mk(in, WithProvenance(rec)).RetrieveContext(context.Background(), q)
		if err != nil {
			continue // the oracle tests judge failures
		}
		e := rec.Explain(q.Subject, res.Atoms(q.Subject), in.Store.Contains, 20000)
		if d := rederive(e, in.Store.Contains, checked); d != "" {
			return name + ": " + d
		}
	}
	return ""
}

// TestExplainTreesRederive: on the oracle generator's programs and the
// shipped ones, the explain trees re-derive their facts — each derived
// node an instance of its rule over its children, each leaf a stored fact
// or a true comparison — so specialising a component's rules to its calls
// leaves every witness a proof.
func TestExplainTreesRederive(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	checked := 0
	for seed := 1; seed <= seeds; seed++ {
		c := newGenerator(int64(seed), make(genFeatures)).generate()
		if d := rederiveDisagreement(c.input(t), c.query, &checked); d != "" {
			small := shrink(c, func(s genCase) bool { return rederiveDisagreement(s.input(t), s.query, new(int)) != "" })
			t.Fatalf("seed %d: %s\nshrunk to:\n%v", seed, rederiveDisagreement(small.input(t), small.query, new(int)), small)
		}
	}
	for _, c := range shippedCases(t) {
		in := load(t, c.src)
		for _, stmt := range c.stmts {
			if d := rederiveDisagreement(in, query(t, stmt), &checked); d != "" {
				t.Errorf("%s, %s: %s", c.program, stmt, d)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no derived node was checked")
	}
}
