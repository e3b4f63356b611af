package core

import (
	"kdb/internal/builtin"
	"kdb/internal/term"
)

// unfoldLimits bound the §6 unfolding machinery (negative hypotheses,
// possibility checks, concept comparison). Recursive predicates make the
// exact expansion infinite; the bounds keep it a sound approximation.
type unfoldLimits struct {
	// maxExpansions bounds rule applications along one branch.
	maxExpansions int
	// maxDisjuncts bounds the number of produced EDB-level conjunctions.
	maxDisjuncts int
	// banned, when non-nil, rejects any branch in which a goal atom
	// unifies with a banned atom — the `where not h` extension.
	banned []term.Atom
}

func defaultUnfoldLimits() unfoldLimits {
	return unfoldLimits{maxExpansions: 8, maxDisjuncts: 128}
}

// unfold expands the formula into conjunctions over EDB predicates and
// comparisons only, by resolving IDB atoms against the original rules in
// all ways, up to the limits. Disjuncts with unsatisfiable comparison
// parts are dropped. The result is the DNF of the input over the stored
// vocabulary; truncated reports whether a limit cut the expansion short
// (a verdict of "impossible" is then only valid within the bound).
func (d *Describer) unfold(f term.Formula, lim unfoldLimits) (out []term.Formula, truncated bool, err error) {
	var rn term.Renamer
	var b bindings
	// Stacks each expansion carves its renamed rule and its goal list
	// from, popped when the expansion returns (the search's variant and
	// descend do the same), and the scratch a disjunct is applied into
	// to test its comparisons before it is applied again into its own
	// arrays.
	var terms, disTerms []term.Term
	var atoms, goalStack, dis, cmps term.Formula
	var rec func(goals []term.Atom, acc term.Formula, budget int) error
	rec = func(goals []term.Atom, acc term.Formula, budget int) error {
		if len(out) >= lim.maxDisjuncts {
			truncated = true
			return nil
		}
		if len(goals) == 0 {
			dis, disTerms = b.apply(dis[:0], disTerms[:0], acc)
			cmps = cmps[:0]
			for _, a := range dis {
				if term.IsComparison(a) {
					cmps = append(cmps, a)
				}
			}
			sat, err := builtin.Sat(cmps)
			if err != nil {
				return err
			}
			if sat {
				dis, _ := b.apply(make(term.Formula, 0, len(acc)), make([]term.Term, 0, len(disTerms)), acc)
				out = append(out, dis)
			}
			return nil
		}
		g := goals[0]
		rest := goals[1:]
		for _, ban := range lim.banned {
			mark := b.mark()
			if b.unify(g, ban) {
				b.undo(mark)
				return nil // this branch relies on banned knowledge
			}
		}
		rules := d.graph.RulesFor(g.Pred)
		if term.IsComparison(g) || len(rules) == 0 {
			// EDB atom or comparison: keep it.
			return rec(rest, append(acc, g), budget)
		}
		if budget <= 0 {
			truncated = true
			return nil // recursion bound reached: drop the branch
		}
		for _, r := range rules {
			// The head binds first: a renamed variable takes the goal's
			// term, and the goal's variable (the user's X) stays itself.
			nt, na, ng := len(terms), len(atoms), len(goalStack)
			var fresh term.Rule
			fresh, terms, atoms = rn.AppendRule(r, terms, atoms)
			mark := b.mark()
			if b.unify(fresh.Head, g) {
				goalStack = append(append(goalStack, fresh.Body...), rest...)
				err := rec(goalStack[ng:len(goalStack):len(goalStack)], acc, budget-1)
				b.undo(mark)
				if err != nil {
					return err
				}
			}
			terms, atoms, goalStack = terms[:nt], atoms[:na], goalStack[:ng]
		}
		return nil
	}
	err = rec(f, nil, lim.maxExpansions)
	return out, truncated, err
}

// chaseKeys applies the declared candidate keys to one EDB-level
// conjunction: whenever two atoms of a predicate agree on all key
// columns, their remaining columns are unified (the functional reading of
// §6's third extension). It returns the rewritten conjunction and false
// when a forced unification fails (two distinct constants in a non-key
// column), meaning the conjunction is unsatisfiable under the keys.
func (d *Describer) chaseKeys(f term.Formula) (term.Formula, bool) {
	cur := f.Clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				a, b := cur[i], cur[j]
				if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
					continue
				}
				keys := d.keys[a.Pred]
				for _, key := range keys {
					match := true
					for _, col := range key {
						if a.Args[col-1] != b.Args[col-1] {
							match = false
							break
						}
					}
					if !match {
						continue
					}
					var mgu bindings
					if !mgu.unify(a, b) {
						return nil, false
					}
					if len(mgu.trail) > 0 {
						cur, _ = mgu.apply(nil, nil, cur)
						changed = true
					}
				}
			}
		}
	}
	return cur, true
}

// consistent reports whether the EDB-level conjunction describes a
// possible situation: the declared keys chase without clash, the
// comparison part is satisfiable, and no integrity constraint (§2.1,
// second Horn-clause form) is triggered.
func (d *Describer) consistent(f term.Formula) (bool, error) {
	chased, ok := d.chaseKeys(f)
	if !ok {
		return false, nil
	}
	cmp, _ := builtin.Split(chased)
	sat, err := builtin.Sat(cmp)
	if err != nil || !sat {
		return false, err
	}
	if len(d.icDisjuncts) == 0 {
		return true, nil
	}
	// A constraint is triggered when the conjunction entails its
	// forbidden pattern: the pattern θ-subsumes the conjunction.
	m := newMatcher(nil)
	situation := m.prepare(chased)
	for _, alternatives := range d.icDisjuncts {
		for i := range alternatives {
			hit, err := m.subsumes(&alternatives[i], &situation)
			if err != nil {
				return false, err
			}
			if hit {
				return false, nil
			}
		}
	}
	return true, nil
}
