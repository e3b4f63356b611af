package eval

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// The differential net under the compiled join loop. The oracle is the
// seed's interpreter — solveBody and chooseAtom as they stood before
// bodies were compiled, passing a term.Subst from atom to atom and
// re-picking the next atom for every candidate — run as a naive fixpoint
// over plain Go slices of facts. A seeded generator makes random programs,
// databases and queries; every engine must agree with the oracle on the
// answer set or on the error text, and the compiled loop must agree with
// the interpreter solution for solution on single bodies, safe or not.

// --- the oracle ---

type oracleLookup func(a term.Atom, base term.Subst, fn func(term.Subst) bool) error

// oracleSolveBody enumerates all substitutions extending base that
// satisfy the conjunction, resolving ordinary atoms through lk. Atoms are
// chosen greedily: ground comparisons are evaluated as early as possible,
// equality atoms propagate bindings, and ordinary atoms are joined
// left-to-right otherwise. fn returning false stops the enumeration.
func oracleSolveBody(body []term.Atom, base term.Subst, lk oracleLookup, fn func(term.Subst) bool) (bool, error) {
	if len(body) == 0 {
		return fn(base), nil
	}
	idx, err := oracleChooseAtom(body, base)
	if err != nil {
		return false, err
	}
	atom := body[idx]
	rest := make([]term.Atom, 0, len(body)-1)
	rest = append(rest, body[:idx]...)
	rest = append(rest, body[idx+1:]...)

	if term.IsComparison(atom) {
		bound := base.Apply(atom)
		if atom.Pred == term.PredEq && (bound.Args[0].IsVar() || bound.Args[1].IsVar()) {
			// Equality with an unbound side: bind by unification.
			s := base.Clone()
			if s == nil {
				s = term.NewSubst(1)
			}
			l, r := s.Walk(bound.Args[0]), s.Walk(bound.Args[1])
			switch {
			case l == r:
			case l.IsVar():
				s.Bind(l, r)
			case r.IsVar():
				s.Bind(r, l)
			default:
				return true, nil // distinct constants: equality fails
			}
			return oracleSolveBody(rest, s, lk, fn)
		}
		ok, err := builtin.Eval(bound)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		return oracleSolveBody(rest, base, lk, fn)
	}

	// The seed assigned the nested error to err inside the callback, where
	// lk's own return value then overwrote it: an unbound comparison
	// reached behind a lookup stopped that lookup silently. The oracle
	// keeps it.
	cont := true
	var nested error
	err = lk(atom, base, func(ext term.Subst) bool {
		c, err2 := oracleSolveBody(rest, ext, lk, fn)
		if err2 != nil {
			nested = err2
			return false
		}
		cont = c
		return c
	})
	if err == nil {
		err = nested
	}
	if err != nil {
		return false, err
	}
	return cont, nil
}

// oracleChooseAtom picks the next body atom to resolve: a ready
// comparison if any (ground, or an equality with at most one unbound
// side), else the first ordinary atom, else an equality between
// variables; when only unevaluable comparisons remain it reports the
// first of them with the substitution applied.
func oracleChooseAtom(body []term.Atom, s term.Subst) (int, error) {
	firstOrdinary, firstEq, firstStuck := -1, -1, -1
	for i, a := range body {
		if !term.IsComparison(a) {
			if firstOrdinary < 0 {
				firstOrdinary = i
			}
			continue
		}
		bound := s.Apply(a)
		groundArgs := 0
		for _, t := range bound.Args {
			if t.IsConst() {
				groundArgs++
			}
		}
		if groundArgs == 2 {
			return i, nil
		}
		if a.Pred == term.PredEq {
			if groundArgs == 1 {
				return i, nil
			}
			if firstEq < 0 {
				firstEq = i
			}
		} else if firstStuck < 0 {
			firstStuck = i
		}
	}
	if firstOrdinary >= 0 {
		return firstOrdinary, nil
	}
	if firstEq >= 0 {
		return firstEq, nil
	}
	return 0, fmt.Errorf("eval: cannot evaluate %v: unbound comparison", s.Apply(body[firstStuck]))
}

// oracleFacts is an extension per predicate, in insertion order.
type oracleFacts struct {
	byPred map[string][]term.Atom
	seen   map[string]bool
}

func newOracleFacts(facts []term.Atom) *oracleFacts {
	f := &oracleFacts{byPred: make(map[string][]term.Atom), seen: make(map[string]bool)}
	for _, a := range facts {
		f.add(a)
	}
	return f
}

func (f *oracleFacts) add(a term.Atom) bool {
	k := a.Key()
	if f.seen[k] {
		return false
	}
	f.seen[k] = true
	f.byPred[a.Pred] = append(f.byPred[a.Pred], a)
	return true
}

func (f *oracleFacts) lookup(a term.Atom, base term.Subst, fn func(term.Subst) bool) error {
	pattern := base.Apply(a)
	for _, fact := range f.byPred[a.Pred] {
		if ext, ok := term.Match(pattern, fact, base); ok && !fn(ext) {
			return nil
		}
	}
	return nil
}

// oracleHeads returns the instantiated heads of one rule over the facts,
// in the order the interpreter finds them.
func oracleHeads(r term.Rule, facts *oracleFacts) ([]term.Atom, error) {
	var heads []term.Atom
	var derr error
	_, err := oracleSolveBody(r.Body, nil, facts.lookup, func(s term.Subst) bool {
		head := s.Apply(r.Head)
		if !head.IsGround() {
			derr = fmt.Errorf("eval: derived non-ground fact %v from %v", head, r)
			return false
		}
		heads = append(heads, head)
		return true
	})
	if err == nil {
		err = derr
	}
	return heads, err
}

// oracleRetrieve answers the query by applying every rule, and the
// plan's query rule, to everything known until nothing new appears. It
// shares the engines' front end (the query rule, the safety check and
// the snapshots of the virtual relations it reaches), not their
// evaluation.
func oracleRetrieve(in Input, q Query) (*Result, error) {
	p, err := buildPlan(in, q)
	if err != nil {
		return nil, err
	}
	rules := append(slices.Clone(in.Rules), p.rule())
	var stored []term.Atom
	for _, pred := range in.Store.Preds() {
		stored = append(stored, in.Store.Facts(pred)...)
	}
	for _, pred := range slices.Sorted(maps.Keys(p.virtual)) {
		p.virtual[pred].Scan(func(t storage.Tuple) bool {
			stored = append(stored, term.Atom{Pred: pred, Args: t})
			return true
		})
	}
	facts := newOracleFacts(stored)
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			heads, err := oracleHeads(r, facts)
			if err != nil {
				return nil, err
			}
			for _, h := range heads {
				if facts.add(h) {
					changed = true
				}
			}
		}
	}
	res := &Result{Vars: p.vars}
	for _, a := range facts.byPred[queryPredName] {
		res.Tuples = append(res.Tuples, storage.Tuple(a.Args))
	}
	return res, nil
}

// --- the generator ---

// genCase is one generated program, database and query.
type genCase struct {
	facts []term.Atom
	rules []term.Rule
	query Query
}

func (c genCase) String() string {
	var b strings.Builder
	for _, f := range c.facts {
		fmt.Fprintf(&b, "%v.\n", f)
	}
	for _, r := range c.rules {
		fmt.Fprintf(&b, "%v.\n", r)
	}
	fmt.Fprintf(&b, "retrieve %v", c.query.Subject)
	if len(c.query.Where) > 0 {
		fmt.Fprintf(&b, " where %v", c.query.Where)
	}
	return b.String() + ".\n"
}

func (c genCase) input(t testing.TB) Input {
	t.Helper()
	st := storage.NewMemory()
	for _, f := range c.facts {
		if _, err := st.InsertAtom(f); err != nil {
			t.Fatalf("insert %v: %v", f, err)
		}
	}
	return Input{Store: st, Rules: c.rules}
}

// genFeatures counts what the generator has produced, so a test can hold
// it to covering every shape the engines special-case.
type genFeatures map[string]int

var (
	genSyms  = []term.Term{term.Sym("a"), term.Sym("b"), term.Sym("c"), term.Sym("d"), term.Sym("e")}
	genNums  = []term.Term{term.Num(1), term.Num(2), term.Num(3), term.Num(4)}
	genVars  = []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")}
	genExtra = []term.Term{term.Var("E"), term.Var("F")} // bound by equalities only
	genEDB   = map[string]int{"e": 2, "f": 2, "n": 2, "u": 1}
	genIDB   = map[string]int{"p0": 2, "p1": 2, "p2": 1, "p3": 2}
	genOps   = []string{term.PredLt, term.PredLe, term.PredGt, term.PredGe, term.PredNe, term.PredEq}
)

type generator struct {
	r    *rand.Rand
	feat genFeatures
}

func (g *generator) pick(ts []term.Term) term.Term { return ts[g.r.Intn(len(ts))] }

func (g *generator) chance(percent int) bool { return g.r.Intn(100) < percent }

func (g *generator) pred(m map[string]int) (string, int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	name := names[g.r.Intn(len(names))]
	return name, m[name]
}

// constFor returns a constant of the kind the column holds: n's second
// column is numeric, everything else symbolic.
func (g *generator) constFor(pred string, pos int) term.Term {
	if pred == "n" && pos == 1 {
		return g.pick(genNums)
	}
	return g.pick(genSyms)
}

// ordinary makes one ordinary atom over the stored and (when idb) the
// derived vocabulary, with arguments from the variable pool or, rarely,
// a constant.
func (g *generator) ordinary(idb bool) term.Atom {
	name, arity := g.pred(genEDB)
	if idb && g.chance(40) {
		name, arity = g.pred(genIDB)
	}
	args := make([]term.Term, arity)
	for i := range args {
		if g.chance(12) {
			args[i] = g.constFor(name, i)
			g.feat["constant in body atom"]++
		} else {
			args[i] = g.pick(genVars)
		}
	}
	if arity == 2 && args[0].IsVar() && args[0] == args[1] {
		g.feat["repeated variable in one atom"]++
	}
	return term.Atom{Pred: name, Args: args}
}

// comparisons makes up to two comparisons over the variables the ordinary
// atoms bind, and returns with them the extra variables they bind by
// equality. Rarely it mentions a variable nothing binds: an unsafe rule.
func (g *generator) comparisons(bound []term.Term) (cmps []term.Atom, extra []term.Term) {
	fresh := slices.Clone(genExtra)
	for n := g.r.Intn(3); n > 0 && len(bound) > 0; n-- {
		v := g.pick(bound)
		switch k := g.r.Intn(10); {
		case k < 3:
			c := g.pick(genNums)
			if g.chance(40) {
				c = g.pick(genSyms)
			}
			cmps = append(cmps, term.NewAtom(genOps[g.r.Intn(len(genOps))], v, c))
		case k < 5:
			cmps = append(cmps, term.NewAtom(genOps[g.r.Intn(len(genOps))], v, g.pick(bound)))
		case k < 6 && len(fresh) > 0:
			cmps = append(cmps, term.NewAtom(term.PredEq, fresh[0], g.pick(genSyms)))
			extra, fresh = append(extra, fresh[0]), fresh[1:]
			g.feat["X = c"]++
		case k < 8 && len(fresh) > 0:
			eq := term.NewAtom(term.PredEq, fresh[0], v)
			if g.chance(50) {
				eq = term.NewAtom(term.PredEq, v, fresh[0])
			}
			cmps = append(cmps, eq)
			extra, fresh = append(extra, fresh[0]), fresh[1:]
			g.feat["X = Y, one side bound"]++
		case k < 9 && len(fresh) == 2:
			// Never bound and used nowhere else: trivially true.
			cmps = append(cmps, term.NewAtom(term.PredEq, fresh[0], fresh[1]))
			fresh = nil
			g.feat["X = Y, neither side bound"]++
		case g.chance(15):
			cmps = append(cmps, term.NewAtom(term.PredGt, term.Var("U"), v))
			g.feat["unsafe comparison"]++
		}
	}
	return cmps, extra
}

// body makes a rule body: one to three ordinary atoms and up to two
// comparisons, shuffled so that a comparison may be written before the
// atom that binds its variables. It returns the variables a head may use.
func (g *generator) body(idb bool) (term.Formula, []term.Term) {
	var body term.Formula
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		body = append(body, g.ordinary(idb))
	}
	bound := body.Vars()
	cmps, extra := g.comparisons(bound)
	body = append(body, cmps...)
	g.r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	if i := slices.IndexFunc(body, term.IsComparison); i >= 0 && !slices.ContainsFunc(body[:i], term.IsComparison) &&
		slices.ContainsFunc(body[i:], func(a term.Atom) bool { return !term.IsComparison(a) }) {
		g.feat["comparison before its binder"]++
	}
	return body, append(bound, extra...)
}

func (g *generator) rule(head string, arity int) term.Rule {
	body, usable := g.body(true)
	args := make([]term.Term, arity)
	for i := range args {
		switch {
		case g.chance(8) || len(usable) == 0:
			args[i] = g.pick(genSyms)
		case g.chance(3):
			args[i] = term.Var("V") // nothing binds it: an unsafe rule
			g.feat["unsafe head"]++
		default:
			args[i] = g.pick(usable)
		}
	}
	r := term.Rule{Head: term.Atom{Pred: head, Args: args}, Body: body}
	rec := 0
	for _, a := range body {
		if a.Pred == head {
			rec++
		}
	}
	switch {
	case rec == 1:
		g.feat["linear recursion"]++
	case rec > 1:
		g.feat["non-linear recursion"]++
	}
	return r
}

func (g *generator) fact(pred string, arity int) term.Atom {
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = g.constFor(pred, i)
	}
	return term.Atom{Pred: pred, Args: args}
}

func (g *generator) generate() genCase {
	var c genCase
	for _, pred := range []string{"e", "f", "n", "u"} {
		for n := 2 + g.r.Intn(7); n > 0; n-- {
			c.facts = append(c.facts, g.fact(pred, genEDB[pred]))
		}
	}
	for _, pred := range []string{"p0", "p1", "p2", "p3"} {
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			c.rules = append(c.rules, g.rule(pred, genIDB[pred]))
		}
	}
	if g.chance(30) {
		c.rules = append(c.rules, term.Rule{Head: g.fact("p1", 2)})
		g.feat["bodiless ground rule"]++
	}
	if g.chance(30) {
		c.facts = append(c.facts, g.fact("p0", 2), g.fact("p0", 2))
		g.feat["stored facts and rules"]++
	}
	if g.mutual(c.rules) {
		g.feat["mutual recursion"]++
	}
	c.query = g.query()
	return c
}

// query makes a query: a known subject with bound and unbound arguments
// and an optional qualifier, or a new subject defined by its qualifier.
func (g *generator) query() Query {
	if where, usable := g.body(true); g.chance(25) && len(usable) > 0 {
		args := []term.Term{g.pick(usable)}
		if g.chance(50) {
			args = append(args, g.pick(usable))
		}
		g.feat["ad-hoc subject"]++
		return Query{Subject: term.Atom{Pred: "ans", Args: args}, Where: where}
	}
	name, arity := g.pred(genIDB)
	if g.chance(20) {
		name, arity = g.pred(genEDB)
	}
	args := make([]term.Term, arity)
	for i := range args {
		if g.chance(35) {
			args[i] = g.constFor(name, i)
			g.feat["bound subject argument"]++
		} else {
			args[i] = g.pick(genVars[:2])
			g.feat["unbound subject argument"]++
		}
	}
	q := Query{Subject: term.Atom{Pred: name, Args: args}}
	for n := g.r.Intn(3); n > 0; n-- {
		if g.chance(50) {
			q.Where = append(q.Where, g.ordinary(true))
		} else if vars := q.Subject.Vars(nil); len(vars) > 0 {
			q.Where = append(q.Where,
				term.NewAtom(genOps[g.r.Intn(len(genOps))], g.pick(vars), g.pick(genSyms)))
		}
	}
	return q
}

// mutual reports whether two distinct predicates reach each other.
func (g *generator) mutual(rules []term.Rule) bool {
	uses := make(map[string]map[string]bool)
	for _, r := range rules {
		for _, a := range r.Body {
			if _, idb := genIDB[a.Pred]; idb {
				if uses[r.Head.Pred] == nil {
					uses[r.Head.Pred] = make(map[string]bool)
				}
				uses[r.Head.Pred][a.Pred] = true
			}
		}
	}
	for p := range uses {
		for q := range uses[p] {
			if p != q && uses[q][p] {
				return true
			}
		}
	}
	return false
}

// --- engines against the oracle ---

// disagreement runs the case on the oracle and on every engine and
// describes the first difference, or returns "".
func disagreement(t testing.TB, c genCase) string {
	return judge(c.input(t), c.query)
}

// sharedDisagreement is disagreement with the engines given the rules
// prepared ahead of the statement.
func sharedDisagreement(t testing.TB, c genCase) string {
	in := c.input(t)
	in.Prepared = Prepare(depgraph.New(in.Rules))
	return judge(in, c.query)
}

// judge runs q on the oracle, which prepares nothing ahead, and on every
// engine over in, and describes the first difference, or returns "".
func judge(in Input, q Query) string {
	want, werr := oracleRetrieve(Input{Store: in.Store, Rules: in.Rules, Virtual: in.Virtual}, q)
	for _, e := range engines(in) {
		got, err := e.RetrieveContext(context.Background(), q)
		switch {
		case werr != nil && err == nil:
			return fmt.Sprintf("%s answered %v, the oracle failed with %q", e.Name(), got.Strings(), werr)
		case werr != nil:
			if err.Error() != werr.Error() {
				return fmt.Sprintf("%s failed with %q, the oracle with %q", e.Name(), err, werr)
			}
		case err != nil:
			return fmt.Sprintf("%s failed with %q, the oracle answered %v", e.Name(), err, want.Strings())
		case !reflect.DeepEqual(got.Strings(), want.Strings()):
			return fmt.Sprintf("%s answered %v, the oracle %v", e.Name(), got.Strings(), want.Strings())
		}
	}
	return ""
}

// shrink drops rules, facts and qualifier atoms from a failing case, one
// at a time, for as long as it keeps failing.
func shrink(c genCase, fails func(genCase) bool) genCase {
	for again := true; again; {
		again = false
		try := func(n int, drop func(d *genCase, i int)) {
			for i := n - 1; i >= 0; i-- {
				d := c
				if drop(&d, i); fails(d) {
					c, again = d, true
				}
			}
		}
		try(len(c.rules), func(d *genCase, i int) { d.rules = dropAt(d.rules, i) })
		try(len(c.facts), func(d *genCase, i int) { d.facts = dropAt(d.facts, i) })
		try(len(c.query.Where), func(d *genCase, i int) { d.query.Where = dropAt(d.query.Where, i) })
	}
	return c
}

func dropAt[S ~[]E, E any](s S, i int) S { return slices.Delete(slices.Clone(s), i, i+1) }

// TestEnginesMatchOracle: on seeded random programs every engine returns
// the oracle's answer set, or fails with the oracle's error text.
func TestEnginesMatchOracle(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	feat := make(genFeatures)
	for seed := 1; seed <= seeds; seed++ {
		g := &generator{r: rand.New(rand.NewSource(int64(seed))), feat: feat}
		c := g.generate()
		if disagreement(t, c) == "" {
			continue
		}
		small := shrink(c, func(d genCase) bool { return disagreement(t, d) != "" })
		t.Fatalf("seed %d: %s\nshrunk to:\n%v", seed, disagreement(t, small), small)
	}
	for _, want := range []string{
		"linear recursion", "non-linear recursion", "mutual recursion",
		"repeated variable in one atom", "constant in body atom", "comparison before its binder",
		"X = c", "X = Y, one side bound", "X = Y, neither side bound",
		"stored facts and rules", "bodiless ground rule",
		"bound subject argument", "unbound subject argument", "ad-hoc subject",
		"unsafe head", "unsafe comparison",
	} {
		if feat[want] == 0 {
			t.Errorf("no generated case had: %s", want)
		}
	}
}

// TestEnginesMatchOracleSharedRuleSet: one rule set prepared per
// generated program serves several statements over it, on every engine
// in turn, and each answers as the oracle does or fails with its text.
func TestEnginesMatchOracleSharedRuleSet(t *testing.T) {
	seeds, queries := 200, 5
	if testing.Short() {
		seeds = 40
	}
	for seed := 1; seed <= seeds; seed++ {
		g := &generator{r: rand.New(rand.NewSource(int64(seed))), feat: make(genFeatures)}
		c := g.generate()
		in := c.input(t)
		in.Prepared = Prepare(depgraph.New(in.Rules))
		for i := 0; i < queries; i++ {
			if i > 0 {
				c.query = g.query()
			}
			if judge(in, c.query) == "" {
				continue
			}
			small := shrink(c, func(d genCase) bool { return sharedDisagreement(t, d) != "" })
			t.Fatalf("seed %d, statement %d: %s\nshrunk to:\n%v", seed, i, sharedDisagreement(t, small), small)
		}
	}
}

// shippedCase is a shipped program with the statements the examples and
// end-to-end tests ask of it.
type shippedCase struct {
	program, src string
	stmts        []string
}

// shippedCases are the shipped programs and a 40-course prerequisite
// chain, c039 down to c000.
func shippedCases(t testing.TB) []shippedCase {
	shipped := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	var chain strings.Builder
	for j := 1; j < 40; j++ {
		fmt.Fprintf(&chain, "prereq(c%03d, c%03d).\n", j, j-1)
	}
	chain.WriteString("prior(X, Y) :- prereq(X, Y).\nprior(X, Y) :- prereq(X, Z), prior(Z, Y).\n")
	return []shippedCase{
		{"university.kdb", shipped("university.kdb"), []string{
			`retrieve honor(X).`,
			`retrieve honor(X) where enroll(X, databases).`,
			`retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`,
			`retrieve prior(databases, Y).`,
			`retrieve prior(X, programming).`,
			`retrieve can_ta(X, databases).`,
		}},
		{"routes.kdb", shipped("routes.kdb"), []string{
			`retrieve reachable(la, Y).`,
			`retrieve roundtrip(la, Y).`,
		}},
		{"genealogy.kdb", shipped("genealogy.kdb"), []string{
			`retrieve ancestor(X, gina).`,
			`retrieve married(X, Y).`,
			`retrieve sibling(dora, Y).`,
		}},
		{"prerequisite-chain", chain.String(), []string{
			`retrieve prior(c039, Y).`,
		}},
	}
}

// TestEnginesMatchOracleOnShippedPrograms: the shipped programs, with the
// statements the examples and end-to-end tests ask of them, are fixed
// cases beside the generated ones: every engine answers each as the
// oracle does.
func TestEnginesMatchOracleOnShippedPrograms(t *testing.T) {
	for _, c := range shippedCases(t) {
		t.Run(strings.TrimSuffix(c.program, ".kdb"), func(t *testing.T) {
			in := load(t, c.src)
			for _, stmt := range c.stmts {
				if got := retrieveAll(t, in, query(t, stmt)); len(got) == 0 {
					t.Errorf("%s has no answer", stmt)
				}
			}
		})
	}
}

// TestShrinkKeepsWhatFails: the shrinker reduces a case to the rules and
// facts its failure depends on.
func TestShrinkKeepsWhatFails(t *testing.T) {
	g := &generator{r: rand.New(rand.NewSource(7)), feat: make(genFeatures)}
	c := g.generate()
	rule, fact := c.rules[2], c.facts[5]
	small := shrink(c, func(d genCase) bool {
		return slices.ContainsFunc(d.rules, func(r term.Rule) bool { return r.Equal(rule) }) &&
			slices.ContainsFunc(d.facts, func(f term.Atom) bool { return f.Equal(fact) })
	})
	if len(small.rules) != 1 || len(small.facts) != 1 || len(small.query.Where) != 0 {
		t.Fatalf("shrunk to %d rules, %d facts, %d qualifier atoms:\n%v",
			len(small.rules), len(small.facts), len(small.query.Where), small)
	}
}

// --- the compiled loop against the interpreter ---

// headsDriver resolves like a component with nothing derived yet and,
// instead of inserting, keeps a copy of every head derived.
type headsDriver struct {
	*component
	heads []term.Atom
}

func newHeadsDriver(st *storage.Store) *headsDriver {
	return &headsDriver{component: &component{store: st, d: newDerived(nil), cs: &ComponentStats{}, pin: -1}}
}

func (d *headsDriver) derive(r *runner) error {
	head, err := r.fact()
	if err == nil {
		d.heads = append(d.heads, term.NewAtom(head.Pred, head.Args...))
	}
	return err
}

// TestCompiledBodyMatchesInterpreter: over random bodies — safe, unsafe
// and unevaluable alike — the compiled loop finds the interpreter's
// solutions in the interpreter's order, and where the interpreter fails
// (an unbound comparison reached, a head left non-ground) it fails with
// the same text after the same solutions.
func TestCompiledBodyMatchesInterpreter(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	failed := 0
	for seed := 1; seed <= seeds; seed++ {
		g := &generator{r: rand.New(rand.NewSource(int64(seed))), feat: make(genFeatures)}
		c := g.generate()
		rule := g.rule("h", 2)
		// Make the shapes safety turns away common here: drop an atom, so
		// that comparisons and head variables lose their binders.
		if len(rule.Body) > 1 && g.chance(40) {
			rule.Body = slices.Delete(rule.Body, 0, 1)
		}
		want, werr := oracleHeads(rule, newOracleFacts(c.facts))
		if werr != nil {
			failed++
		}

		drv := newHeadsDriver(c.input(t).Store)
		err := newRunner(rule, compileBody(rule.Head, rule.Body), drv).exec()
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("seed %d: %v\ncompiled loop: %v\ninterpreter:   %v", seed, rule, err, werr)
		}
		if !slices.EqualFunc(drv.heads, want, term.Atom.Equal) {
			t.Fatalf("seed %d: %v\ncompiled loop: %v\ninterpreter:   %v", seed, rule, drv.heads, want)
		}
	}
	if failed < seeds/50 {
		t.Errorf("only %d of %d bodies were unevaluable: the error paths are barely covered", failed, seeds)
	}
}
