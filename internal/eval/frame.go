package eval

import (
	"fmt"
	"slices"

	"kdb/internal/builtin"
	"kdb/internal/governor"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// The compiled join loop shared by every engine. A rule body is compiled
// once per use: its variables are numbered into slots of a frame and its
// atoms are put in the order they will be resolved. That order can be
// fixed ahead of the data because whether a variable is bound when an
// atom is reached depends only on which atoms came before it — every
// relation holds ground tuples, so an ordinary atom binds all of its
// variables and an equality with one bound side binds the other. A runner
// then evaluates the steps against one reused frame: a slot is always
// written by an earlier step before a later one reads it, so there is no
// substitution to extend, copy or undo per candidate tuple.

type stepKind uint8

const (
	stepProbe  stepKind = iota // ordinary atom: probe a relation, bind first occurrences
	stepFilter                 // comparison with both sides bound
	stepAssign                 // equality with one side bound: it binds the other
	stepStuck                  // comparison with an unbound side and nothing left to bind it
	stepAlias                  // compile time only: equality between two unbound variables
)

// operand is one side of a comparison: the frame slot when slot >= 0,
// otherwise t itself (a constant or, in a stepStuck, an unbound variable).
type operand struct {
	slot int
	t    term.Term
}

// posSlot pairs an argument position of an atom with a frame slot.
type posSlot struct{ pos, slot int }

// step is one body atom in resolution order.
type step struct {
	kind stepKind
	atom term.Atom
	idx  int // the atom's position in the source body

	// stepProbe: the positions copied from the frame into the pattern
	// before the probe, and the first occurrences of still-unbound
	// variables copied from each matching tuple into the frame. Repeated
	// occurrences stay variables in the pattern; the relation checks them.
	bound, binds []posSlot

	// Comparisons. A stepAssign writes l's value to slot dst.
	l, r operand
	dst  int
}

// compiled is a rule body ready for a runner. It is immutable.
type compiled struct {
	body   []term.Atom
	steps  []step
	nslots int
	// vars are the variables of body and head; slots[i] is where vars[i]
	// is found once every step has run, -1 if nothing binds it.
	vars  []term.Term
	slots []int
	// head is the rule head with its constants and never-bound variables
	// in place; headFill lists the positions taken from the frame.
	head     term.Atom
	headFill []posSlot
	ground   bool // every head variable is bound
}

// nextAtom picks the next unresolved body atom given which terms are
// bound: the first comparison that is ready (both sides bound, or an
// equality with one side bound), else the first ordinary atom, else an
// equality between unbound variables, else — only unevaluable comparisons
// remain — the first of those.
func nextAtom(body []term.Atom, done []bool, bound func(term.Term) bool) (int, stepKind) {
	firstOrdinary, firstEq, firstStuck := -1, -1, -1
	for i, a := range body {
		if done[i] {
			continue
		}
		if !term.IsComparison(a) {
			if firstOrdinary < 0 {
				firstOrdinary = i
			}
			continue
		}
		n := 0
		for _, t := range a.Args {
			if bound(t) {
				n++
			}
		}
		switch {
		case n == 2:
			return i, stepFilter // cheapest filter
		case a.Pred == term.PredEq && n == 1:
			return i, stepAssign
		case a.Pred == term.PredEq:
			if firstEq < 0 {
				firstEq = i
			}
		case firstStuck < 0:
			firstStuck = i
		}
	}
	switch {
	case firstOrdinary >= 0:
		return firstOrdinary, stepProbe
	case firstEq >= 0:
		return firstEq, stepAlias
	}
	return firstStuck, stepStuck
}

// compileBody numbers the variables of head and body into slots and
// fixes the resolution order. It never fails: an unevaluable comparison
// becomes a stepStuck that raises its error only if evaluation reaches
// it, and a head variable nothing binds is reported by runner.fact when a
// solution is found.
func compileBody(head term.Atom, body []term.Atom) *compiled {
	c := &compiled{body: body}
	slotOf := make(map[term.Term]int)
	var bound []bool // per slot
	slot := func(v term.Term) int {
		s, ok := slotOf[v]
		if !ok {
			s = len(bound)
			slotOf[v] = s
			bound = append(bound, false)
			c.vars = append(c.vars, v)
		}
		return s
	}
	isBound := func(t term.Term) bool { return t.IsConst() || bound[slot(t)] }
	// An unbound variable reads as the variable its slot was numbered
	// for, which is what equalities between variables alias it to.
	arg := func(t term.Term) operand {
		if t.IsConst() {
			return operand{slot: -1, t: t}
		}
		s := slot(t)
		if !bound[s] {
			return operand{slot: -1, t: c.vars[s]}
		}
		return operand{slot: s}
	}

	done := make([]bool, len(body))
compile:
	for range body {
		i, kind := nextAtom(body, done, isBound)
		done[i] = true
		a := body[i]
		st := step{kind: kind, atom: a, idx: i}
		switch kind {
		case stepProbe:
			for pos, t := range a.Args {
				if t.IsConst() {
					continue
				}
				s := slot(t)
				switch {
				case bound[s]:
					st.bound = append(st.bound, posSlot{pos, s})
				case !slices.Contains(a.Args[:pos], t):
					st.binds = append(st.binds, posSlot{pos, s})
				}
			}
			for _, b := range st.binds {
				bound[b.slot] = true
			}
		case stepAssign:
			from, to := a.Args[0], a.Args[1]
			if isBound(to) {
				from, to = to, from
			}
			st.l, st.dst = arg(from), slot(to)
			bound[st.dst] = true
		case stepAlias:
			// Neither side can be bound before the body ends unless a
			// later equality binds both at once: share one slot.
			if l, r := slot(a.Args[0]), slot(a.Args[1]); l != r {
				for v, s := range slotOf {
					if s == l {
						slotOf[v] = r
					}
				}
			}
			continue
		default:
			st.l, st.r = arg(a.Args[0]), arg(a.Args[1])
		}
		c.steps = append(c.steps, st)
		if kind == stepStuck {
			break compile // nothing after it can run
		}
	}

	c.head = term.NewAtom(head.Pred, head.Args...)
	c.ground = true
	for pos, t := range head.Args {
		if t.IsConst() {
			continue
		}
		if s := slot(t); bound[s] {
			c.headFill = append(c.headFill, posSlot{pos, s})
		} else {
			c.head.Args[pos] = c.vars[s]
			c.ground = false
		}
	}
	c.nslots = len(bound)
	c.slots = make([]int, len(c.vars))
	for i, v := range c.vars {
		c.slots[i] = -1
		if s := slotOf[v]; bound[s] {
			c.slots[i] = s
		}
	}
	return c
}

// driver is what a runner needs from the engine that drives it.
type driver interface {
	// resolve feeds p.each every tuple that matches p.pattern, from
	// wherever the engine keeps the atom's extension, until it returns
	// false.
	resolve(p *probe) error
	// derive is called once per solution of the body; r.fact() is the
	// instantiated head.
	derive(r *runner) error
}

// probe is the run-time side of one stepProbe.
type probe struct {
	r    *runner
	st   *step
	next int // index of the step after this one
	// pattern is the atom's argument list with the bound positions filled
	// in for the current probe; the rest are the atom's own variables.
	pattern []term.Term
	// except, while set, names a relation whose tuples are skipped: how a
	// predicate with both derived and stored tuples (the kb layer turns
	// stored facts of rule-defined predicates into bodiless rules, but
	// eval stays robust either way) is enumerated once.
	except *storage.Relation
	each   func(storage.Tuple) bool // p.onTuple, built once
}

// runner evaluates one compiled body. It owns every buffer the loop
// writes, so it serves one evaluation at a time: the bottom-up engines
// keep one per rule and component, top-down builds one per call because
// a subgoal may re-enter the rule whose body is being solved.
type runner struct {
	rule   term.Rule // the source rule, for provenance, profiles and messages
	prog   *compiled
	drv    driver
	frame  []term.Term
	probes []probe   // parallel to prog.steps
	head   term.Atom // reused: valid until the next solution
	cmp    [2]term.Term
	err    error // set once; the enumeration then unwinds
}

func newRunner(rule term.Rule, c *compiled, drv driver) *runner {
	n := c.nslots + len(c.head.Args)
	for i := range c.steps {
		if c.steps[i].kind == stepProbe {
			n += len(c.steps[i].atom.Args)
		}
	}
	buf := make([]term.Term, n)
	take := func(k int) []term.Term {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	r := &runner{rule: rule, prog: c, drv: drv, probes: make([]probe, len(c.steps))}
	r.frame = take(c.nslots)
	r.head = term.Atom{Pred: c.head.Pred, Args: take(len(c.head.Args))}
	copy(r.head.Args, c.head.Args)
	for i := range c.steps {
		st := &c.steps[i]
		if st.kind != stepProbe {
			continue
		}
		p := &r.probes[i]
		*p = probe{r: r, st: st, next: i + 1, pattern: take(len(st.atom.Args))}
		copy(p.pattern, st.atom.Args)
		p.each = p.onTuple
	}
	return r
}

// exec enumerates the body's solutions, calling the driver's derive for
// each, and returns the first error from a probe, a comparison or derive.
func (r *runner) exec() error {
	r.err = nil
	r.run(0)
	return r.err
}

// run resolves the steps from i on against the frame and reports whether
// the enumeration should go on.
//
//kdb:hotpath
func (r *runner) run(i int) bool {
	steps := r.prog.steps
	for ; i < len(steps); i++ {
		st := &steps[i]
		switch st.kind {
		case stepProbe:
			p := &r.probes[i]
			for _, b := range st.bound {
				p.pattern[b.pos] = r.frame[b.slot]
			}
			if err := r.drv.resolve(p); err != nil {
				return r.fail(err)
			}
			return r.err == nil
		case stepAssign:
			r.frame[st.dst] = r.value(st.l)
		case stepFilter:
			r.cmp[0], r.cmp[1] = r.value(st.l), r.value(st.r)
			ok, err := builtin.Eval(term.Atom{Pred: st.atom.Pred, Args: r.cmp[:]})
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				return true
			}
		default:
			return r.fail(r.stuckErr(st))
		}
	}
	if err := r.drv.derive(r); err != nil {
		return r.fail(err)
	}
	return true
}

// onTuple binds the probe's first occurrences from one matching tuple and
// resolves the rest of the body.
//
//kdb:hotpath
func (p *probe) onTuple(t storage.Tuple) bool {
	if p.except != nil && p.except.Contains(t) {
		return true
	}
	for _, b := range p.st.binds {
		p.r.frame[b.slot] = t[b.pos]
	}
	return p.r.run(p.next)
}

// value reads an operand against the frame.
//
//kdb:hotpath
func (r *runner) value(o operand) term.Term {
	if o.slot >= 0 {
		return r.frame[o.slot]
	}
	return o.t
}

func (r *runner) fail(err error) bool {
	r.err = err
	return false
}

// stuckErr names the comparison evaluation could not get past, with the
// bindings of that moment applied.
func (r *runner) stuckErr(st *step) error {
	a := term.NewAtom(st.atom.Pred, r.value(st.l), r.value(st.r))
	return fmt.Errorf("eval: cannot evaluate %v: unbound comparison", a)
}

// fact instantiates the head for the solution the frame holds. The atom
// is backed by the runner's buffer: it is valid until the next solution
// and must be copied to be kept.
func (r *runner) fact() (term.Atom, error) {
	for _, b := range r.prog.headFill {
		r.head.Args[b.pos] = r.frame[b.slot]
	}
	if !r.prog.ground {
		return term.Atom{}, fmt.Errorf("eval: derived non-ground fact %v from %v", r.head, r.rule)
	}
	if DeriveHook != nil {
		DeriveHook(r.head)
	}
	return r.head, nil
}

// subst returns the solution the frame holds as a substitution.
func (r *runner) subst() term.Subst {
	s := term.NewSubst(len(r.prog.vars))
	for i, v := range r.prog.vars {
		if slot := r.prog.slots[i]; slot >= 0 {
			s[v] = r.frame[slot]
		}
	}
	return s
}

// selectFrom feeds the probe every tuple of rel that matches its pattern,
// charging the probe to c (nil: the counters attached to rel). side says
// which extension rel is, for the arity error.
func (p *probe) selectFrom(rel *storage.Relation, c *storage.Counters, side string) error {
	if rel.Arity() != len(p.pattern) {
		return fmt.Errorf("eval: %s used with arity %d, %s with %d", p.st.atom.Pred, len(p.pattern), side, rel.Arity())
	}
	return rel.SelectCounted(p.pattern, c, p.each)
}

// selectStored feeds the probe the stored tuples of its predicate, less
// those in except (nil: none), which the probe has already been fed.
func (p *probe) selectStored(st *storage.Store, except *storage.Relation, c *storage.Counters) error {
	rel := st.Relation(p.st.atom.Pred)
	if rel == nil {
		return nil // unknown predicate: empty extension
	}
	p.except = except
	err := p.selectFrom(rel, c, "stored")
	p.except = nil
	return err
}

// recordProv is the only provenance code on the derive path: with
// recording disabled (nil recorder) it is a single branch, adding no
// allocations per derived fact (enforced by TestProvenanceDisabledAllocs
// and the provenance benchmarks). With a recorder it copies the head out
// of the runner's buffer and turns the frame into a substitution.
func recordProv(rec *prov.Recorder, gov *governor.Governor, r *runner) error {
	if rec == nil {
		return nil
	}
	fact := term.NewAtom(r.head.Pred, r.head.Args...)
	return gov.CheckProvenanceEntries(rec.Record(fact, r.rule, r.prog.body, r.subst()))
}
