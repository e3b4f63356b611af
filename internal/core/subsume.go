package core

import (
	"slices"

	"kdb/internal/builtin"
	"kdb/internal/term"
)

// conj is a conjunction prepared for θ-subsumption tests, once, in both
// roles: as the target (split into comparisons and ordinary atoms) and
// as the pattern (the same, with every non-fixed variable renamed apart —
// two conjunctions typically share variable names, and θ may bind only
// the pattern's own variables).
type conj struct {
	cmp, ord   term.Formula
	pcmp, pord term.Formula
}

// matcher decides θ-subsumption between conjunctions prepared against
// one set of fixed variables, which θ must map to themselves. It owns
// the substitution being built and is not safe for concurrent use.
type matcher struct {
	fixed []term.Term
	b     bindings
	err   error

	// Scratch of prepare: the non-fixed variables of the conjunction
	// being prepared, by first occurrence, and the pattern variables
	// named so far. Scratch of match: θ of the pattern's comparisons.
	vars, apart []term.Term
	theta       term.Formula
	terms       []term.Term
}

func newMatcher(fixed map[term.Term]bool) *matcher {
	m := &matcher{}
	for v := range fixed {
		m.fixed = append(m.fixed, v)
	}
	return m
}

func (m *matcher) isFixed(v term.Term) bool { return slices.Contains(m.fixed, v) }

// prepare splits the conjunction and renames its pattern form apart:
// every non-fixed variable becomes a pattern variable, numbered by first
// occurrence from patternBase, so pattern and target of a matching
// problem never share variables, nor frame slots. The four parts are
// carved from one formula, and the pattern atoms share one term array.
func (m *matcher) prepare(f term.Formula) conj {
	if len(f) == 0 {
		return conj{}
	}
	n, ncmp, nterms := len(f), 0, 0
	for _, a := range f {
		if term.IsComparison(a) {
			ncmp++
		}
		nterms += len(a.Args)
	}
	all := make(term.Formula, 2*n)
	terms := make([]term.Term, nterms)
	c := conj{
		cmp: all[:0:ncmp], ord: all[ncmp:ncmp:n],
		pcmp: all[n : n : n+ncmp], pord: all[n+ncmp : n+ncmp : 2*n],
	}
	m.vars = m.vars[:0]
	for _, a := range f {
		p := term.Atom{Pred: a.Pred, Args: terms[:len(a.Args):len(a.Args)]}
		terms = terms[len(a.Args):]
		for i, t := range a.Args {
			if t.IsVar() && !m.isFixed(t) {
				t = m.renameApart(t)
			}
			p.Args[i] = t
		}
		if term.IsComparison(a) {
			c.cmp, c.pcmp = append(c.cmp, a), append(c.pcmp, p)
		} else {
			c.ord, c.pord = append(c.ord, a), append(c.pord, p)
		}
	}
	return c
}

// renameApart returns the pattern variable of the non-fixed variable v.
func (m *matcher) renameApart(v term.Term) term.Term {
	i := slices.Index(m.vars, v)
	if i < 0 {
		i = len(m.vars)
		m.vars = append(m.vars, v)
	}
	for len(m.apart) <= i {
		m.apart = append(m.apart, term.NumberedVar("R", patternBase+uint64(len(m.apart))))
	}
	return m.apart[i]
}

// cannotMatch reports that some ordinary atom of the pattern has a
// predicate/arity no atom of the target has, so no θ exists and the
// matcher need not run.
func cannotMatch(pattern, target *conj) bool {
next:
	for _, p := range pattern.pord {
		for _, t := range target.ord {
			if p.Pred == t.Pred && len(p.Args) == len(t.Args) {
				continue next
			}
		}
		return true
	}
	return false
}

// subsumes reports whether general θ-subsumes specific: a substitution
// θ fixing the matcher's fixed variables maps every ordinary atom of
// general onto an atom of specific, and specific's comparisons imply θ
// of general's. Then `head ← specific` is a logical consequence of
// `head ← general`. The error is the last one a comparison implication
// raised, if any; callers that treat a failed implication as "not
// implied" ignore it.
func (m *matcher) subsumes(general, specific *conj) (bool, error) {
	if cannotMatch(general, specific) {
		return false, nil
	}
	m.err = nil
	ok := m.match(general.pord, general, specific)
	m.b.undo(0)
	return ok, m.err
}

// match enumerates substitutions θ with θ(pattern[i]) among specific's
// ordinary atoms for every i and returns true as soon as one makes
// specific's comparisons imply θ of general's.
func (m *matcher) match(pattern term.Formula, general, specific *conj) bool {
	if len(pattern) == 0 {
		m.theta, m.terms = m.b.apply(m.theta[:0], m.terms[:0], general.pcmp)
		implied, err := builtin.Implies(specific.cmp, m.theta)
		if err != nil {
			m.err = err
			return false
		}
		return implied
	}
	for _, t := range specific.ord {
		mark := m.b.mark()
		if m.matchFixed(pattern[0], t) && m.match(pattern[1:], general, specific) {
			return true
		}
		m.b.undo(mark)
	}
	return false
}

// matchFixed is one-way matching where fixed variables may only map to
// themselves. On failure the caller undoes to its mark.
//
// A pattern variable already bound to a non-fixed variable of the
// target, met again against a different term, binds that target
// variable: the test is slightly more permissive than θ-subsumption
// proper. It has always been so, and answers depend on it.
func (m *matcher) matchFixed(pattern, target term.Atom) bool {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return false
	}
	for i, a := range pattern.Args {
		p := m.b.walk(a)
		g := target.Args[i]
		switch {
		case p == g:
		case !p.IsVar() || m.isFixed(p):
			return false
		case p == a:
			m.b.bind(p, g) // a pattern variable: no binding's value names it
		default:
			m.b.rebind(p, g)
		}
	}
	return true
}

// eliminateRedundant removes answers that are logical consequences of
// other answers (the paper's redundancy-free requirement, §3.2): answer
// a makes answer b redundant when a's body θ-subsumes b's with the
// user's variables fixed — both answers carry the same head and
// hypothesis, whose variables denote the same objects. The answers must
// be those of one describe: they share the subject as head, and its
// variables are among the user's.
func eliminateRedundant(answers []Answer, userVars map[term.Term]bool) []Answer {
	if len(answers) <= 1 {
		return answers
	}
	m := newMatcher(userVars)
	conjs := m.prepareAnswers(answers)
	subsumes := func(i, j int) bool {
		if !answers[i].Head.Equal(answers[j].Head) {
			return false
		}
		ok, _ := m.subsumes(&conjs[i], &conjs[j])
		return ok
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
			// Keep the earlier answer on mutual subsumption.
			if subsumes(i, j) && (j > i || !subsumes(j, i)) {
				redundant[j] = true
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

// prepareAll prepares each conjunction.
func (m *matcher) prepareAll(fs []term.Formula) []conj {
	out := make([]conj, len(fs))
	for i, f := range fs {
		out[i] = m.prepare(f)
	}
	return out
}

// prepareAnswers prepares each answer's body.
func (m *matcher) prepareAnswers(answers []Answer) []conj {
	conjs := make([]conj, len(answers))
	for i, a := range answers {
		conjs[i] = m.prepare(a.Body)
	}
	return conjs
}
