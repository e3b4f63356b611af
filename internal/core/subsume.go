package core

import (
	"strconv"

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
	fixed map[term.Term]bool
	b     bindings
	err   error
}

func newMatcher(fixed map[term.Term]bool) *matcher {
	return &matcher{fixed: fixed, b: newBindings()}
}

// prepare splits the conjunction and renames its pattern form apart.
func (m *matcher) prepare(f term.Formula) conj {
	var c conj
	c.cmp, c.ord = builtin.Split(f)
	c.pcmp, c.pord = builtin.Split(renameApart(f, m.fixed))
	return c
}

// renameApart replaces every non-fixed variable of the formula with a
// fresh variable whose name cannot occur in user programs, so pattern and
// target of a matching problem never share variables.
func renameApart(f term.Formula, fixed map[term.Term]bool) term.Formula {
	sub := term.NewSubst(4)
	n := 0
	for _, v := range f.Vars() {
		if !fixed[v] {
			n++
			sub[v] = term.Var("\x01R" + strconv.Itoa(n))
		}
	}
	return sub.ApplyFormula(f)
}

// cannotMatch reports that some ordinary atom of the pattern has a
// predicate/arity no atom of the target has, so no θ exists and the
// matcher need not run.
//
//kdb:hotpath
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
		implied, err := builtin.Implies(specific.cmp, m.b.m.ApplyFormula(general.pcmp))
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
		case !p.IsVar() || m.fixed[p]:
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
