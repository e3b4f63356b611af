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
// shares the engines' front end for a qualifier of one disjunct (the
// query rule, the safety check and the snapshots of the virtual
// relations it reaches), not their evaluation. A qualifier of several
// disjuncts is answered by the union of the disjuncts retrieved one at a
// time, or fails with the first failing disjunct's error, so the
// engines' one rule per disjunct is judged from outside.
func oracleRetrieve(in Input, q Query) (*Result, error) {
	if len(q.Or) > 0 {
		return oracleUnion(in, q)
	}
	p, err := buildPlan(in, q, false)
	if err != nil {
		return nil, err
	}
	rules := append(slices.Clone(in.Rules), p.query[0].rule)
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
	res := &Result{Vars: p.vars()}
	for _, a := range facts.byPred[queryPredName] {
		res.Tuples = append(res.Tuples, storage.Tuple(a.Args))
	}
	return res, nil
}

// oracleUnion answers a qualifier of several disjuncts as the union of
// the answers to each disjunct alone, in disjunct order.
func oracleUnion(in Input, q Query) (*Result, error) {
	var out *Result
	seen := make(map[string]bool)
	for _, d := range append([]term.Formula{q.Where}, q.Or...) {
		res, err := oracleRetrieve(in, Query{Subject: q.Subject, Where: d})
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &Result{Vars: res.Vars}
		}
		for _, t := range res.Tuples {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	return out, nil
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
	if len(c.query.Where) > 0 || len(c.query.Or) > 0 {
		fmt.Fprintf(&b, " where %v", c.query.Where)
	}
	for _, d := range c.query.Or {
		fmt.Fprintf(&b, " or %v", d)
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
	r *rand.Rand
	// calls draws the callee shapes (generator.callee), side the
	// sideways ones (generator.sideways), ors the extra disjuncts
	// (generator.disjuncts) and subjects the one-atom statements
	// (generator.subject), each from a stream of its own, so that adding
	// them moved no case the main stream makes.
	calls, side, ors, subjects *rand.Rand
	feat                       genFeatures
}

func newGenerator(seed int64, feat genFeatures) *generator {
	return &generator{
		r:        rand.New(rand.NewSource(seed)),
		calls:    rand.New(rand.NewSource(-seed)),
		side:     rand.New(rand.NewSource(seed + 2<<32)),
		ors:      rand.New(rand.NewSource(seed + 1<<32)),
		subjects: rand.New(rand.NewSource(seed + 3<<32)),
		feat:     feat,
	}
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
	g.callee(&c)
	g.sideways(&c)
	g.disjuncts(&c.query)
	return c
}

// subject returns c with its statement replaced by one over a derived
// predicate of arity two whose answers are, or are not, bound to be
// distinct: a one-atom statement — its arguments distinct variables, a
// constant and a variable, or one variable twice — at times with a
// qualifier over the subject's variables alone, or with a variable of its
// own, which can repeat an answer; at times with stored facts of the
// predicate beside its rules. It is a case of its own, judged beside c,
// and draws from the generator's subjects stream alone, so generate's
// cases stay as they were.
func (g *generator) subject(c genCase) genCase {
	s := g.subjects
	sym := func() term.Term { return genSyms[s.Intn(len(genSyms))] }
	pred := []string{"p0", "p1", "p3"}[s.Intn(3)]
	args := []term.Term{term.Var("X"), term.Var("Y")}
	switch s.Intn(4) {
	case 0:
		args[s.Intn(2)] = sym()
	case 1:
		args[1] = args[0]
	}
	var where term.Formula
	switch vars := term.NewAtom(pred, args...).Vars(nil); s.Intn(6) {
	case 0:
		where = term.Formula{term.NewAtom("e", vars[len(vars)-1], vars[0])}
	case 1:
		where = term.Formula{term.NewAtom(term.PredNe, vars[0], sym())}
	case 2:
		where = term.Formula{term.NewAtom("f", vars[0], term.Var("Z"))}
	}
	if s.Intn(2) == 0 {
		v := sym()
		c.facts = slices.Concat(c.facts, []term.Atom{term.NewAtom(pred, sym(), sym()), term.NewAtom(pred, v, v)})
	}
	c.query = Query{Subject: term.NewAtom(pred, args...), Where: where}
	return c
}

// disjuncts gives the qualifier, at times, one or two more disjuncts:
// a repeat of one it has, its first with some constants of ordinary
// atoms replaced by other constants or by a fresh variable, or a new
// qualifier made as query makes one — for an ad-hoc subject a new body,
// which may leave the subject's variables unbound. It draws from the
// generator's ors stream alone.
func (g *generator) disjuncts(q *Query) {
	main := g.r
	g.r = g.ors
	defer func() { g.r = main }()
	if !g.chance(35) {
		return
	}
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		var d term.Formula
		switch k := g.r.Intn(4); {
		case k == 0:
			all := append([]term.Formula{q.Where}, q.Or...)
			d = slices.Clone(all[g.r.Intn(len(all))])
		case k == 1:
			d = make(term.Formula, len(q.Where))
			for i, a := range q.Where {
				d[i] = term.Atom{Pred: a.Pred, Args: slices.Clone(a.Args)}
				if term.IsComparison(a) {
					continue
				}
				for j, t := range a.Args {
					switch {
					case !t.IsConst() || g.chance(30):
					case g.chance(30):
						d[i].Args[j] = term.Var("OV")
					default:
						d[i].Args[j] = g.constFor(a.Pred, j)
					}
				}
			}
		case q.Subject.Pred == "ans":
			d, _ = g.body(true)
		default:
			d = g.qualifier(q.Subject)
		}
		q.Or = append(q.Or, d)
	}
}

// callee adds, at times, a non-recursive predicate q/2 over stored atoms
// and calls of it with constants: from the statement directly, or two
// rule levels down through r/1, whose rule calls q with a constant of its
// text and with its own head variable; at times q is also called free.
// q's heads may hold a constant or repeat a variable, so that a call can
// be refused. At times a mutually recursive pair calls q as well.
func (g *generator) callee(c *genCase) {
	s := g.calls
	if s.Intn(100) >= 40 {
		return
	}
	sym := func() term.Term { return genSyms[s.Intn(len(genSyms))] }
	x, y := term.Var("X"), term.Var("Y")
	for n := 1 + s.Intn(2); n > 0; n-- {
		head := []term.Term{x, y}
		switch s.Intn(3) {
		case 0:
			head[1] = x
		case 1:
			head[0] = sym()
		}
		c.rules = append(c.rules, term.NewRule(term.NewAtom("q", head...), term.NewAtom([]string{"e", "f"}[s.Intn(2)], x, y)))
	}
	c.rules = append(c.rules, term.NewRule(term.NewAtom("r", y), term.NewAtom("q", sym(), y)))
	qa, qb := term.Var("QA"), term.Var("QB")
	switch s.Intn(4) {
	case 0:
		c.query.Where = append(c.query.Where, term.NewAtom("q", sym(), sym()))
	case 1:
		c.query.Where = append(c.query.Where, term.NewAtom("q", sym(), qa))
	case 2:
		c.query.Where = append(c.query.Where, term.NewAtom("r", sym()))
	default:
		c.query.Where = append(c.query.Where, term.NewAtom("r", qa), term.NewAtom("q", qa, qb))
	}
	// At times a mutually recursive pair m0/m1 calls q too, one member
	// free and the other with a constant of its text, and the statement
	// reaches the pair through one member only, on a subject variable
	// where it has one so that a member's facts show in the answers.
	if s.Intn(3) > 0 {
		return
	}
	m := [2]string{"m0", "m1"}
	free := s.Intn(2)
	c.rules = append(c.rules,
		term.NewRule(term.NewAtom(m[free], x), term.NewAtom("q", x, y)),
		term.NewRule(term.NewAtom(m[free], x), term.NewAtom(m[1-free], x)),
		term.NewRule(term.NewAtom(m[1-free], x), term.NewAtom(m[free], x), term.NewAtom("q", sym(), x)))
	v := term.Var("QM")
	if vars := c.query.Subject.Vars(nil); len(vars) > 0 {
		v = vars[0]
	}
	c.query.Where = append(c.query.Where, term.NewAtom(m[s.Intn(2)], v))
	g.feat["a recursive group calls a non-recursive predicate"]++
}

// sideways adds, at times, a non-recursive predicate h/1 whose argument
// its callers bind with an earlier atom rather than a constant: from the
// statement, where a stored atom binds it, or two rule levels down
// through t/2, whose rule writes h before the stored atom that binds it.
// A rule of h may hold a constant in its head, which refuses every other
// value, and h may have stored facts beside its rules. At times h is
// also called with a constant, or free in a disjunct of its own. It
// draws from the generator's side stream alone.
func (g *generator) sideways(c *genCase) {
	s := g.side
	if s.Intn(100) >= 40 {
		return
	}
	sym := func() term.Term { return genSyms[s.Intn(len(genSyms))] }
	x, y := term.Var("X"), term.Var("Y")
	bodies := []term.Atom{term.NewAtom("e", x, y), term.NewAtom("f", y, x), term.NewAtom("u", x)}
	for n := 1 + s.Intn(2); n > 0; n-- {
		head := x
		if s.Intn(4) == 0 {
			head = sym()
		}
		c.rules = append(c.rules, term.NewRule(term.NewAtom("h", head), bodies[s.Intn(len(bodies))]))
	}
	if s.Intn(3) == 0 {
		c.facts = append(c.facts, term.NewAtom("h", sym()))
	}
	c.rules = append(c.rules, term.NewRule(term.NewAtom("t", x, y), term.NewAtom("h", x), term.NewAtom("f", x, y)))
	v, w := term.Var("SV"), term.Var("SW")
	if vars := c.query.Subject.Vars(nil); len(vars) > 0 {
		v = vars[0]
	}
	switch s.Intn(4) {
	case 0:
		c.query.Where = append(c.query.Where, term.NewAtom("h", v), term.NewAtom("e", v, sym()))
	case 1:
		c.query.Where = append(c.query.Where, term.NewAtom("t", v, sym()))
	case 2:
		c.query.Where = append(c.query.Where, term.NewAtom("h", sym()), term.NewAtom("f", w, v), term.NewAtom("h", w))
	default:
		c.query.Where = append(c.query.Where, term.NewAtom("e", v, w), term.NewAtom("h", w))
		if c.query.Subject.Pred != "ans" {
			c.query.Or = append(c.query.Or, term.Formula{term.NewAtom("h", w)})
		}
	}
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
	subject := term.Atom{Pred: name, Args: args}
	return Query{Subject: subject, Where: g.qualifier(subject)}
}

// qualifier makes up to two atoms of a known subject's qualifier:
// ordinary atoms, or comparisons of a subject variable with a constant.
func (g *generator) qualifier(subject term.Atom) term.Formula {
	var where term.Formula
	for n := g.r.Intn(3); n > 0; n-- {
		if g.chance(50) {
			where = append(where, g.ordinary(true))
		} else if vars := subject.Vars(nil); len(vars) > 0 {
			where = append(where,
				term.NewAtom(genOps[g.r.Intn(len(genOps))], g.pick(vars), g.pick(genSyms)))
		}
	}
	return where
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

// noteCalls counts the shapes the bottom-up engine's walk
// (plan.sideways) makes of the case: which predicates a call reaches
// under a mask, what binds the call's arguments — a constant, the
// caller's own call, or an earlier atom of its body (sideways) — and how
// the callee's rules take it. It draws nothing from the generator.
func (g *generator) noteCalls(in Input, q Query) {
	p, err := buildPlan(in, q, true)
	if err != nil {
		return
	}
	p.sideways()
	find := func(table string) *callee {
		if i := slices.IndexFunc(p.callees, func(ce callee) bool { return ce.table == table }); i >= 0 {
			return &p.callees[i]
		}
		return nil
	}
	// site is one compiled body that makes calls, and the callee it runs
	// for (nil: a query rule or a rule run in full).
	type site struct {
		prog   *compiled
		caller *callee
		query  int // the query rule's index, -1 for none
	}
	var sites []site
	for i := range p.query {
		sites = append(sites, site{p.query[i].prog, nil, i})
	}
	for pred, prs := range p.set.byHead {
		for i := range prs {
			switch {
			case !p.relevant(pred) || !p.set.specialisable(pred):
			case slices.ContainsFunc(p.callees, func(ce callee) bool { return ce.pred == pred }):
				for k := range p.callees {
					if ce := &p.callees[k]; ce.pred == pred {
						sites = append(sites, site{p.set.compiledFor(&prs[i], ce.mask, false), ce, -1})
					}
				}
			default:
				sites = append(sites, site{p.set.compiledFor(&prs[i], 0, false), nil, -1})
			}
		}
	}
	sideways, constant := map[string]bool{}, map[string]bool{}
	free, bound := map[string]int{}, map[string]int{}
	for _, s := range sites {
		for _, cl := range s.prog.calls {
			st := &s.prog.steps[cl.step]
			if s.query >= 0 && cl.mask == 0 {
				free[cl.pred] |= 1 << s.query
			}
			if s.query >= 0 && cl.table != "" {
				bound[cl.pred] |= 1 << s.query
			}
			ce := find(cl.table)
			if ce == nil {
				if cl.table != "" && p.set.specialisable(cl.pred) {
					g.feat["one predicate is called both bound and free in one statement"]++
				}
				continue
			}
			// binder is the step that bound the call's first variable
			// argument bound, nil when the call binds constants only.
			var binder *step
			if len(st.bound) > 0 {
				for k := range s.prog.steps[:cl.step] {
					if slices.ContainsFunc(s.prog.steps[k].binds, func(b posSlot) bool { return b.slot == st.bound[0].slot }) {
						binder = &s.prog.steps[k]
					}
				}
			}
			if binder == nil || binder.idx == len(s.prog.body) {
				g.feat["a constant reaches a non-recursive predicate"]++
				constant[cl.pred] = true
				if s.caller != nil {
					g.feat["a constant reaches one two rule levels down"]++
				}
			} else {
				sideways[cl.pred] = true
				if len(p.set.byHead[binder.atom.Pred]) == 0 {
					g.feat["a stored atom binds a non-recursive callee's argument"]++
				}
				if s.caller != nil {
					g.feat["a sideways call two rule levels down"]++
				}
				if in.Store.Relation(cl.pred) != nil {
					g.feat["a callee with both stored facts and rules"]++
				}
			}
			for _, pr := range p.set.byHead[cl.pred] {
				for i, h := range pr.rule.Head.Args {
					c := st.atom.Args[i]
					switch {
					case !h.IsConst() || cl.mask&(1<<uint(i)) == 0:
					case c.IsConst() && c != h:
						g.feat["a head constant refuses the call"]++
					case c.IsVar() && binder != nil && binder.idx != len(s.prog.body):
						g.feat["a callee whose head constant refuses a sideways value"]++
					}
					for j := range i {
						if h.IsVar() && pr.rule.Head.Args[j] == h && c.IsConst() && st.atom.Args[j].IsConst() && c != st.atom.Args[j] {
							g.feat["a repeated head variable is called with two different constants"]++
						}
					}
				}
			}
		}
	}
	for pred := range sideways {
		if constant[pred] {
			g.feat["one predicate is called sideways and with a constant"]++
		}
	}
	for pred, qs := range free {
		if bound[pred]&^qs != 0 {
			g.feat["a callee reached free in one disjunct and bound in another"]++
		}
	}
}

// noteDisjuncts counts the shapes a qualifier of several disjuncts takes
// over the case's rules. It draws nothing from the generator.
func (g *generator) noteDisjuncts(in Input, q Query) {
	if len(q.Or) == 0 {
		return
	}
	all := append([]term.Formula{q.Where}, q.Or...)
	if q.Subject.Pred == "ans" {
		unbound := slices.ContainsFunc(all, func(d term.Formula) bool {
			err := checkRule(term.Rule{Head: q.Subject, Body: d})
			return err != nil && strings.Contains(err.Error(), "head variable")
		})
		if unbound {
			g.feat["a disjunct leaves the ad-hoc subject unbound"]++
		} else {
			g.feat["every disjunct binds the ad-hoc subject"]++
		}
	}
	for i, d := range all {
		if slices.ContainsFunc(all[:i], d.Equal) {
			g.feat["a repeated disjunct"]++
		}
	}
	rs := Prepare(depgraph.New(in.Rules))
	// calls holds, per disjunct, the argument lists of its calls of each
	// specialisable predicate.
	calls := make([]map[string][][]term.Term, len(all))
	for i, d := range all {
		calls[i] = make(map[string][][]term.Term)
		for _, a := range d {
			if term.IsComparison(a) {
				continue
			}
			if rs.specialisable(a.Pred) {
				calls[i][a.Pred] = append(calls[i][a.Pred], a.Args)
			}
			recursive := rs.recursive(a.Pred)
			for pred := range rs.graph.Reach(a.Pred) {
				recursive = recursive || rs.recursive(pred)
			}
			if recursive {
				g.feat["a disjunct reaches a recursive predicate"]++
			}
		}
	}
	constants := func(args []term.Term) bool { return slices.ContainsFunc(args, term.Term.IsConst) }
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			for pred, cs := range calls[i] {
				for _, a := range cs {
					for _, b := range calls[j][pred] {
						switch {
						case constants(a) && constants(b) && !slices.Equal(a, b):
							g.feat["two disjuncts call one non-recursive predicate with different constants"]++
						case constants(a) && !constants(b):
							g.feat["one disjunct calls a predicate bound and another calls it free"]++
						}
					}
				}
			}
		}
	}
}

// noteAnswers counts the shapes that decide whether a statement's answers
// can repeat, read from the statement alone: the query rule's body is the
// subject, when its predicate is known, and the qualifier. Only a
// statement the oracle answers with at least one answer counts. It draws
// nothing from the generator.
func (g *generator) noteAnswers(in Input, q Query) {
	if res, err := oracleRetrieve(in, q); err != nil || len(res.Tuples) == 0 {
		return
	}
	if len(q.Or) > 0 {
		g.feat["answers: two or more disjuncts"]++
		return
	}
	rules := slices.ContainsFunc(in.Rules, func(r term.Rule) bool { return r.Head.Pred == q.Subject.Pred })
	stored := in.Store.Relation(q.Subject.Pred) != nil
	body := q.Where
	if rules || stored {
		body = append(term.Formula{q.Subject}, q.Where...)
	}
	answer := q.Subject.Vars(nil)
	if slices.ContainsFunc(body.Vars(), func(v term.Term) bool { return !slices.Contains(answer, v) }) {
		g.feat["answers: a body variable that is not an answer variable"]++
		return
	}
	switch args := q.Subject.Args; {
	case len(q.Where) > 0:
		g.feat["answers: one disjunct whose body outputs every variable"]++
	case slices.ContainsFunc(args, term.Term.IsConst):
		g.feat["answers: a one-atom subject with a constant"]++
	case len(answer) < len(args):
		g.feat["answers: a one-atom subject with a repeated variable"]++
	default:
		g.feat["answers: a one-atom subject with distinct variables"]++
		if rules && stored {
			g.feat["answers: a one-atom subject with stored and derived facts"]++
		}
	}
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
		try(len(c.query.Or), func(d *genCase, i int) { d.query.Or = dropAt(d.query.Or, i) })
	}
	return c
}

func dropAt[S ~[]E, E any](s S, i int) S { return slices.Delete(slices.Clone(s), i, i+1) }

// TestEnginesMatchOracle: on seeded random programs every engine returns
// the oracle's answer set, or fails with the oracle's error text.
func TestEnginesMatchOracle(t *testing.T) {
	seeds := 400
	if testing.Short() {
		// The rarest required feature, a repeated head variable called
		// with two different constants, first occurs at seed 95.
		seeds = 120
	}
	feat := make(genFeatures)
	for seed := 1; seed <= seeds; seed++ {
		g := newGenerator(int64(seed), feat)
		c := g.generate()
		g.noteCalls(c.input(t), c.query)
		g.noteDisjuncts(c.input(t), c.query)
		for _, c := range []genCase{c, g.subject(c)} {
			g.noteAnswers(c.input(t), c.query)
			if disagreement(t, c) == "" {
				continue
			}
			small := shrink(c, func(d genCase) bool { return disagreement(t, d) != "" })
			t.Fatalf("seed %d: %s\nshrunk to:\n%v", seed, disagreement(t, small), small)
		}
	}
	for _, want := range []string{
		"linear recursion", "non-linear recursion", "mutual recursion",
		"repeated variable in one atom", "constant in body atom", "comparison before its binder",
		"X = c", "X = Y, one side bound", "X = Y, neither side bound",
		"stored facts and rules", "bodiless ground rule",
		"bound subject argument", "unbound subject argument", "ad-hoc subject",
		"unsafe head", "unsafe comparison",
		"a constant reaches a non-recursive predicate", "a constant reaches one two rule levels down",
		"a head constant refuses the call", "a repeated head variable is called with two different constants",
		"one predicate is called both bound and free in one statement",
		"a recursive group calls a non-recursive predicate",
		"a stored atom binds a non-recursive callee's argument", "a sideways call two rule levels down",
		"one predicate is called sideways and with a constant", "a callee whose head constant refuses a sideways value",
		"a callee with both stored facts and rules", "a callee reached free in one disjunct and bound in another",
		"two disjuncts call one non-recursive predicate with different constants",
		"one disjunct calls a predicate bound and another calls it free",
		"a disjunct reaches a recursive predicate", "a repeated disjunct",
		"every disjunct binds the ad-hoc subject", "a disjunct leaves the ad-hoc subject unbound",
		"answers: a one-atom subject with distinct variables", "answers: a one-atom subject with a constant",
		"answers: a one-atom subject with a repeated variable", "answers: a one-atom subject with stored and derived facts",
		"answers: one disjunct whose body outputs every variable",
		"answers: a body variable that is not an answer variable", "answers: two or more disjuncts",
	} {
		if feat[want] == 0 {
			t.Errorf("no generated case had: %s", want)
		}
	}
}

// TestAnswersKeepTheQueryTableOrder: a statement of one disjunct whose
// answers cannot repeat keeps no query table; the same statement with its
// disjunct repeated keeps one. On every generated case, and on its
// one-atom statement (generator.subject), both answer alike — the same
// tuples in the same order, or the same error — and count the same facts.
func TestAnswersKeepTheQueryTableOrder(t *testing.T) {
	collected := 0
	for seed := 1; seed <= 400; seed++ {
		g := newGenerator(int64(seed), make(genFeatures))
		c := g.generate()
		for _, c := range []genCase{c, g.subject(c)} {
			if len(c.query.Or) > 0 {
				continue
			}
			in, twice := c.input(t), c.query
			twice.Or = []term.Formula{twice.Where}
			plain, tabled := NewSemiNaive(in), NewSemiNaive(in)
			got, err := plain.RetrieveContext(context.Background(), c.query)
			want, werr := tabled.RetrieveContext(context.Background(), twice)
			switch {
			case err != nil || werr != nil:
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("seed %d: %q, with the query table %q\n%v", seed, err, werr, c)
				}
				continue
			case !reflect.DeepEqual(got.Tuples, want.Tuples):
				t.Fatalf("seed %d: answered %v, with the query table %v\n%v", seed, got.Tuples, want.Tuples, c)
			}
			if gf, wf := plain.(StatsReporter).LastStats().Facts, tabled.(StatsReporter).LastStats().Facts; gf != wf {
				t.Fatalf("seed %d: %d facts, with the query table %d\n%v", seed, gf, wf, c)
			}
			if len(got.Tuples) > 0 {
				collected++
			}
		}
	}
	if collected < 100 {
		t.Errorf("only %d cases with one disjunct had answers", collected)
	}
}

// TestRecursiveGroupCallsMatchOracle: the generated cases whose pair
// m0/m1 calls q are judged again on a statement naming one member alone,
// whose answers are that member's facts, so that a call of q the walk
// fails to pass on shows as a missing answer.
func TestRecursiveGroupCallsMatchOracle(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	judged, answered := 0, 0
	for seed := 1; seed <= seeds; seed++ {
		c := newGenerator(int64(seed), make(genFeatures)).generate()
		if !slices.ContainsFunc(c.rules, func(r term.Rule) bool { return r.Head.Pred == "m0" }) {
			continue
		}
		for _, stmt := range []string{`retrieve m0(X).`, `retrieve m1(X).`} {
			c.query = query(t, stmt)
			if d := disagreement(t, c); d != "" {
				small := shrink(c, func(d genCase) bool { return disagreement(t, d) != "" })
				t.Fatalf("seed %d: %s\nshrunk to:\n%v", seed, disagreement(t, small), small)
			}
			judged++
			if want, err := oracleRetrieve(c.input(t), c.query); err == nil && len(want.Strings()) > 0 {
				answered++
			}
		}
	}
	if judged == 0 || answered < judged/3 {
		t.Errorf("%d statements judged, %d of them with answers: the pair is barely exercised", judged, answered)
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
		g := newGenerator(int64(seed), make(genFeatures))
		c := g.generate()
		in := c.input(t)
		in.Prepared = Prepare(depgraph.New(in.Rules))
		for i := 0; i < queries; i++ {
			if i > 0 {
				c.query = g.query()
				g.disjuncts(&c.query)
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
			`retrieve can_ta(ann, Y).`,
			`retrieve can_ta(ann, databases).`,
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
	g := newGenerator(7, make(genFeatures))
	c := g.generate()
	rule, fact := c.rules[2], c.facts[5]
	small := shrink(c, func(d genCase) bool {
		return slices.ContainsFunc(d.rules, func(r term.Rule) bool { return r.Equal(rule) }) &&
			slices.ContainsFunc(d.facts, func(f term.Atom) bool { return f.Equal(fact) })
	})
	if len(small.rules) != 1 || len(small.facts) != 1 || len(small.query.Where) != 0 || len(small.query.Or) != 0 {
		t.Fatalf("shrunk to %d rules, %d facts, %d qualifier atoms, %d more disjuncts:\n%v",
			len(small.rules), len(small.facts), len(small.query.Where), len(small.query.Or), small)
	}
}

// TestDisjunctOrderDoesNotChangeAnswers: on the generated cases whose
// qualifier has several disjuncts, every engine answers the disjuncts
// reversed, and with one of them repeated, as it answers them in order;
// a statement that fails fails either way.
func TestDisjunctOrderDoesNotChangeAnswers(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	judged := 0
	for seed := 1; seed <= seeds; seed++ {
		c := newGenerator(int64(seed), make(genFeatures)).generate()
		if len(c.query.Or) == 0 {
			continue
		}
		all := append([]term.Formula{c.query.Where}, c.query.Or...)
		reversed := slices.Clone(all)
		slices.Reverse(reversed)
		repeated := append(slices.Clone(all), all[seed%len(all)])
		in := c.input(t)
		for _, e := range engines(in) {
			want, werr := e.RetrieveContext(context.Background(), c.query)
			for _, ds := range [][]term.Formula{reversed, repeated} {
				q := Query{Subject: c.query.Subject, Where: ds[0], Or: ds[1:]}
				got, err := e.RetrieveContext(context.Background(), q)
				switch {
				case (err != nil) != (werr != nil):
					t.Fatalf("seed %d, %s: %v answers %v, %v; in order: %v, %v", seed, e.Name(), ds, got, err, want, werr)
				case err == nil && !reflect.DeepEqual(got.Strings(), want.Strings()):
					t.Fatalf("seed %d, %s: %v answers %v; in order %v", seed, e.Name(), ds, got.Strings(), want.Strings())
				}
			}
		}
		judged++
	}
	if judged < seeds/5 {
		t.Errorf("only %d of %d cases had several disjuncts", judged, seeds)
	}
}

// TestRuleOrderDoesNotChangeAnswers: on every generated case, every
// engine answers the program with its rule list reversed, with each rule
// body reversed, and with every rule's variables renamed as it answers
// the program as written; a statement that fails fails either way.
func TestRuleOrderDoesNotChangeAnswers(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	var rn term.Renamer
	rewrites := []struct {
		name  string
		apply func([]term.Rule) []term.Rule
	}{
		{"rules reversed", func(rs []term.Rule) []term.Rule {
			out := slices.Clone(rs)
			slices.Reverse(out)
			return out
		}},
		{"bodies reversed", func(rs []term.Rule) []term.Rule {
			out := make([]term.Rule, len(rs))
			for i, r := range rs {
				out[i] = term.Rule{Head: r.Head, Body: slices.Clone(r.Body), Pos: r.Pos}
				slices.Reverse(out[i].Body)
			}
			return out
		}},
		{"rules renamed", func(rs []term.Rule) []term.Rule {
			out := make([]term.Rule, len(rs))
			for i, r := range rs {
				out[i] = rn.RenameRule(r)
			}
			return out
		}},
	}
	reordered := 0
	for seed := 1; seed <= seeds; seed++ {
		c := newGenerator(int64(seed), make(genFeatures)).generate()
		if len(c.rules) > 1 && slices.ContainsFunc(c.rules, func(r term.Rule) bool { return len(r.Body) > 1 }) {
			reordered++
		}
		in := c.input(t)
		for i, e := range engines(in) {
			want, werr := e.RetrieveContext(context.Background(), c.query)
			for _, rw := range rewrites {
				d := c
				d.rules = rw.apply(c.rules)
				got, err := engines(d.input(t))[i].RetrieveContext(context.Background(), c.query)
				switch {
				case (err != nil) != (werr != nil):
					t.Fatalf("seed %d, %s, %s: %v, %v; as written: %v, %v\n%v", seed, e.Name(), rw.name, got, err, want, werr, d)
				case err == nil && !reflect.DeepEqual(got.Strings(), want.Strings()):
					t.Fatalf("seed %d, %s, %s: %v; as written %v\n%v", seed, e.Name(), rw.name, got.Strings(), want.Strings(), d)
				}
			}
		}
	}
	if reordered < seeds/2 {
		t.Errorf("only %d of %d cases had two rules and a body of two atoms", reordered, seeds)
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
	return &headsDriver{component: &component{store: st, d: make(derived), cs: &ComponentStats{}, pin: -1}}
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
		g := newGenerator(int64(seed), make(genFeatures))
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
		err := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), drv).exec()
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
