package core

import (
	"context"
	"fmt"
	"sort"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/term"
)

// This file implements the four describe-statement extensions sketched in
// Section 6 of the paper.

// DescribeNecessaryContext is extension 1: `describe p where necessary
// ψ` keeps only the answers in which every hypothesis conjunct proved
// necessary — ordinary conjuncts by identification, comparisons by
// eliminating a body comparison. It runs under a query governor (see
// DescribeContext).
func (d *Describer) DescribeNecessaryContext(ctx context.Context, subject term.Atom, hypothesis term.Formula, limits governor.Limits) (*Answers, error) {
	ans, err := d.DescribeContext(ctx, subject, hypothesis, limits)
	if err != nil {
		return nil, err
	}
	kept := ans.Formulas[:0:0]
	for _, a := range ans.Formulas {
		used := make(map[int]bool, len(a.UsedHypothesis))
		for _, idx := range a.UsedHypothesis {
			used[idx] = true
		}
		all := true
		for i := range hypothesis {
			if !used[i] {
				all = false
				break
			}
		}
		if all {
			kept = append(kept, a)
		}
	}
	ans.Formulas = kept
	return ans, nil
}

// Necessity is the result of extension 2 (`describe p where not h`): is
// the excluded knowledge necessary for the subject?
type Necessity struct {
	Subject term.Atom
	// Excluded echoes the banned atoms.
	Excluded term.Formula
	// Possible reports whether the subject has a derivation that avoids
	// every banned atom. The paper's `false` answer — the banned concept
	// is necessary — corresponds to Possible == false.
	Possible bool
	// Truncated reports that the expansion hit a bound; a negative
	// verdict is then only valid within it.
	Truncated bool
	// Witnesses are EDB-level derivations avoiding the banned atoms
	// (present only when Possible).
	Witnesses []term.Formula
}

// String renders the verdict in the paper's style.
func (n *Necessity) String() string {
	if n.Possible {
		return "true (derivable without the excluded knowledge)"
	}
	return "false (the excluded knowledge is necessary)"
}

// DescribeNot evaluates extension 2: it checks whether the subject can be
// derived into stored predicates without ever resolving against an atom
// that unifies with one of the banned atoms. Positive hypothesis
// conjuncts, when present, are conjoined to each candidate derivation for
// the satisfiability test. The expansion is bounded (see unfoldLimits);
// within the bound the verdict is exact.
func (d *Describer) DescribeNot(subject term.Atom, banned term.Formula, positive term.Formula) (*Necessity, error) {
	if len(d.graph.RulesFor(subject.Pred)) == 0 {
		return nil, fmt.Errorf("core: %s is not an IDB predicate", subject.Pred)
	}
	lim := defaultUnfoldLimits()
	lim.banned = banned
	goals := append(term.Formula{subject}, positive...)
	disjuncts, truncated, err := d.unfold(goals, lim)
	if err != nil {
		return nil, err
	}
	n := &Necessity{Subject: subject, Excluded: banned, Truncated: truncated}
	for _, dis := range disjuncts {
		ok, err := d.consistent(dis)
		if err != nil {
			return nil, err
		}
		if ok {
			n.Possible = true
			if len(n.Witnesses) < 4 {
				n.Witnesses = append(n.Witnesses, dis)
			}
		}
	}
	return n, nil
}

// Possibility is the result of extension 3 (subjectless describe): can
// the hypothetical situation ψ arise at all?
type Possibility struct {
	Hypothesis term.Formula
	// Possible reports whether some EDB-level reading of ψ is consistent
	// with the rules, the declared keys, and the comparison constraints.
	Possible bool
	// Witness is one consistent EDB-level reading (when Possible).
	Witness term.Formula
	// Conflicts lists one inconsistent reading per discarded disjunct,
	// for explanation (capped).
	Conflicts []term.Formula
	// Truncated reports that the expansion hit a bound; a negative
	// verdict is then only valid within it.
	Truncated bool
}

// String renders the verdict in the paper's style.
func (p *Possibility) String() string {
	if p.Possible {
		return "true (the situation is possible)"
	}
	return "false (the situation contradicts the knowledge base)"
}

// Possible evaluates extension 3: `describe where ψ`. Every IDB atom of ψ
// is unfolded into stored predicates; a disjunct is consistent when the
// declared keys can be chased without clash and the comparison part is
// satisfiable. The situation is possible when any disjunct survives.
func (d *Describer) Possible(hypothesis term.Formula) (*Possibility, error) {
	if len(hypothesis) == 0 {
		return nil, fmt.Errorf("core: a subjectless describe needs a hypothesis")
	}
	disjuncts, truncated, err := d.unfold(hypothesis, defaultUnfoldLimits())
	if err != nil {
		return nil, err
	}
	p := &Possibility{Hypothesis: hypothesis, Truncated: truncated}
	for _, dis := range disjuncts {
		ok, err := d.consistent(dis)
		if err != nil {
			return nil, err
		}
		if ok {
			if !p.Possible {
				p.Possible = true
				p.Witness = dis
			}
		} else if len(p.Conflicts) < 4 {
			p.Conflicts = append(p.Conflicts, dis)
		}
	}
	return p, nil
}

// maxWildcardAnswers caps the digest shown per wildcard subject.
const maxWildcardAnswers = 4

// WildcardEntry pairs a derivable subject with its knowledge answers.
type WildcardEntry struct {
	Subject term.Atom
	Answers *Answers
}

// DescribeWildcard evaluates extension 4: `describe * where ψ` — all the
// subjects derivable from the qualifier. Every IDB predicate is
// described under ψ; entries whose answers actually use the hypothesis
// are returned, most specific first (fewest residual conjuncts).
func (d *Describer) DescribeWildcard(hypothesis term.Formula) ([]WildcardEntry, error) {
	entries, _, err := d.DescribeWildcardContext(context.Background(), hypothesis, governor.Limits{})
	return entries, err
}

// DescribeWildcardContext is DescribeWildcard under a query governor: one
// governor (context, deadline) spans the searches of all subjects, while
// limits.MaxDescribeNodes bounds the steps of each subject's search
// individually. nodes is the search steps of all of them together.
func (d *Describer) DescribeWildcardContext(ctx context.Context, hypothesis term.Formula, limits governor.Limits) (out []WildcardEntry, nodes int, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, limits)
	defer cancel()
	if len(hypothesis) == 0 {
		return nil, 0, fmt.Errorf("core: describe * needs a hypothesis")
	}
	// Enumerate IDB predicates (those with rules). Predicates named by
	// the hypothesis itself are skipped — "honor is derivable from
	// honor" carries no information.
	inHyp := make(map[string]bool, len(hypothesis))
	for _, h := range hypothesis {
		inHyp[h.Pred] = true
	}
	seen := make(map[string]int) // pred → arity
	var preds []string
	for _, r := range d.graph.Rules() {
		if _, ok := seen[r.Head.Pred]; !ok {
			seen[r.Head.Pred] = r.Head.Arity()
			preds = append(preds, r.Head.Pred)
		}
	}
	sort.Strings(preds)
	for _, pred := range preds {
		if inHyp[pred] {
			continue
		}
		args := make([]term.Term, seen[pred])
		for i := range args {
			args[i] = term.Var(fmt.Sprintf("W%d", i+1))
		}
		subject := term.NewAtom(pred, args...)
		ans, err := d.describe(gov, obs.SpanFromContext(ctx), subject, hypothesis)
		if err != nil {
			return nil, nodes, err
		}
		nodes += ans.Nodes
		var used []Answer
		for _, a := range ans.Formulas {
			if len(a.UsedHypothesis) > 0 {
				used = append(used, inlineSubjectEqualities(a))
			}
		}
		if len(used) == 0 {
			continue
		}
		// The wildcard is a digest: keep the most specific answers (the
		// fewest residual conjuncts), capped per subject.
		sort.SliceStable(used, func(i, j int) bool { return len(used[i].Body) < len(used[j].Body) })
		if len(used) > maxWildcardAnswers {
			used = used[:maxWildcardAnswers]
		}
		out = append(out, WildcardEntry{
			Subject: subject,
			Answers: &Answers{Subject: subject, Hypothesis: hypothesis, Formulas: used},
		})
	}
	return out, nodes, nil
}

// inlineSubjectEqualities folds `W = X` equalities between the synthetic
// wildcard head variables and the hypothesis's variables back into the
// head, so entries read the way the paper presents them
// (can_ta(X, W2) <- complete(X, W2, Z, 4) rather than a W1 = X conjunct).
func inlineSubjectEqualities(a Answer) Answer {
	headVars := make(map[term.Term]bool)
	for _, v := range a.Head.Vars(nil) {
		headVars[v] = true
	}
	sub := term.NewSubst(2)
	var rest term.Formula
	for _, atom := range a.Body {
		if atom.Pred == term.PredEq && len(atom.Args) == 2 &&
			atom.Args[0].IsVar() && headVars[atom.Args[0]] && atom.Args[1].IsVar() {
			sub[atom.Args[0]] = atom.Args[1]
			continue
		}
		rest = append(rest, atom)
	}
	if len(sub) == 0 {
		return a
	}
	return Answer{
		Head:           sub.Apply(a.Head),
		Body:           sub.ApplyFormula(rest),
		UsedHypothesis: a.UsedHypothesis,
		ViaRules:       a.ViaRules,
	}
}
