package core

import (
	"fmt"
	"strings"

	"kdb/internal/builtin"
	"kdb/internal/term"
)

// Relation classifies how two concepts relate (§6, final extension).
type Relation uint8

// Concept relations.
const (
	// RelUnrelated: the maximal shared concept is empty.
	RelUnrelated Relation = iota
	// RelOverlapping: the concepts share a non-trivial concept but
	// neither subsumes the other.
	RelOverlapping
	// RelLeftSubsumesRight: every instance of the right concept is an
	// instance of the left (right ⊑ left).
	RelLeftSubsumesRight
	// RelRightSubsumesLeft: every instance of the left concept is an
	// instance of the right (left ⊑ right).
	RelRightSubsumesLeft
	// RelEquivalent: each subsumes the other.
	RelEquivalent
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case RelUnrelated:
		return "unrelated"
	case RelOverlapping:
		return "overlapping"
	case RelLeftSubsumesRight:
		return "left subsumes right"
	case RelRightSubsumesLeft:
		return "right subsumes left"
	case RelEquivalent:
		return "equivalent"
	default:
		return fmt.Sprintf("relation(%d)", uint8(r))
	}
}

// ConceptComparison is the answer to a compare statement: the relation,
// the maximal shared concept found, and the residual differences of the
// best-matching definition pair.
type ConceptComparison struct {
	Left, Right term.Atom
	Relation    Relation
	// Shared is the maximal shared concept (over the best-matching pair
	// of EDB-level definitions).
	Shared term.Formula
	// LeftOnly and RightOnly elucidate the difference: conjuncts present
	// in one concept's definition but not the shared concept.
	LeftOnly, RightOnly term.Formula
}

// String renders the comparison.
func (c *ConceptComparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s: %s\n", c.Left, c.Right, c.Relation)
	fmt.Fprintf(&b, "  shared concept: %s\n", c.Shared)
	if len(c.LeftOnly) > 0 {
		fmt.Fprintf(&b, "  only %s: %s\n", c.Left.Pred, c.LeftOnly)
	}
	if len(c.RightOnly) > 0 {
		fmt.Fprintf(&b, "  only %s: %s\n", c.Right.Pred, c.RightOnly)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Compare evaluates the §6 compare statement over two described concepts.
// Both subjects must have the same arity; the right subject's variables
// are aligned with the left's. Each side is expanded (under its
// hypothesis) to EDB-level definitions; subsumption between the
// definition sets determines the relation, and the best-matching pair
// yields the shared concept and the differences.
func (d *Describer) Compare(left term.Atom, leftHyp term.Formula, right term.Atom, rightHyp term.Formula) (*ConceptComparison, error) {
	if len(left.Args) != len(right.Args) {
		return nil, fmt.Errorf("core: cannot compare %s/%d with %s/%d: different arities",
			left.Pred, len(left.Args), right.Pred, len(right.Args))
	}
	// Align the right subject's variables with the left's.
	align := term.NewSubst(len(right.Args))
	for i, t := range right.Args {
		if t.IsVar() {
			if t != left.Args[i] {
				align[t] = left.Args[i]
			}
		} else if t != left.Args[i] {
			return nil, fmt.Errorf("core: cannot align constant argument %v with %v", t, left.Args[i])
		}
	}
	right = align.Apply(right)
	rightHyp = align.ApplyFormula(rightHyp)

	lim := defaultUnfoldLimits()
	leftDefs, _, err := d.unfold(append(term.Formula{left}, leftHyp...), lim)
	if err != nil {
		return nil, err
	}
	rightDefs, _, err := d.unfold(append(term.Formula{right}, rightHyp...), lim)
	if err != nil {
		return nil, err
	}
	if len(leftDefs) == 0 || len(rightDefs) == 0 {
		return nil, fmt.Errorf("core: a compared concept has no consistent definition")
	}

	fixed := make(map[term.Term]bool)
	for _, v := range left.Vars(nil) {
		fixed[v] = true
	}
	m := newMatcher(fixed)
	leftConjs, rightConjs := m.prepareAll(leftDefs), m.prepareAll(rightDefs)

	leftInRight := m.defsSubsumed(leftConjs, rightConjs)
	rightInLeft := m.defsSubsumed(rightConjs, leftConjs)

	cmp := &ConceptComparison{Left: left, Right: right}
	switch {
	case leftInRight && rightInLeft:
		cmp.Relation = RelEquivalent
	case rightInLeft:
		cmp.Relation = RelLeftSubsumesRight
	case leftInRight:
		cmp.Relation = RelRightSubsumesLeft
	}

	// Maximal shared concept over the best-matching definition pair.
	best := -1
	for i := range leftConjs {
		for j := range rightConjs {
			shared, lOnly, rOnly := m.sharedConcept(&leftConjs[i], &rightConjs[j])
			score := len(shared)
			if score > best {
				best = score
				cmp.Shared, cmp.LeftOnly, cmp.RightOnly = shared, lOnly, rOnly
			}
		}
	}
	if cmp.Relation == RelUnrelated && len(cmp.Shared) > 0 {
		cmp.Relation = RelOverlapping
	}
	return cmp, nil
}

// defsSubsumed reports whether every definition in sub is θ-subsumed by
// some definition in super (with head variables fixed): then the sub
// concept is contained in the super concept.
func (m *matcher) defsSubsumed(sub, super []conj) bool {
	for i := range sub {
		covered := false
		for j := range super {
			if ok, _ := m.subsumes(&super[j], &sub[i]); ok {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// sharedConcept computes a greedy maximal common generalization of two
// EDB-level definitions: ordinary atoms matched under a substitution
// fixing the head variables, plus every comparison entailed by both
// sides. The leftovers on each side elucidate the difference.
func (m *matcher) sharedConcept(dl, dr *conj) (shared, leftOnly, rightOnly term.Formula) {
	// The left side matches in its renamed-apart form: the two
	// definitions typically share variable names (both come from
	// unfolding), and the matcher may only bind the pattern's variables.
	// Originals are kept for reporting.
	lCmpOrig, lOrdOrig := dl.cmp, dl.ord
	lCmp, lOrd := dl.pcmp, dl.pord
	rCmp, rOrd := dr.cmp, dr.ord

	defer m.b.undo(0)
	theta := m.b.m
	usedRight := make([]bool, len(rOrd))
	for i, la := range lOrd {
		matched := false
		for j, ra := range rOrd {
			if usedRight[j] {
				continue
			}
			mark := m.b.mark()
			if !m.matchFixed(la, ra) {
				m.b.undo(mark)
				continue
			}
			usedRight[j] = true
			shared = append(shared, ra)
			matched = true
			break
		}
		if !matched {
			leftOnly = append(leftOnly, lOrdOrig[i])
		}
	}
	for j, ra := range rOrd {
		if !usedRight[j] {
			rightOnly = append(rightOnly, ra)
		}
	}

	// Comparisons entailed by BOTH sides belong to the shared concept;
	// the rest are differences.
	candidates := append(theta.ApplyFormula(lCmp), rCmp...)
	seen := make(map[string]bool)
	for _, c := range candidates {
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		li, err1 := builtin.Implies(theta.ApplyFormula(lCmp), term.Formula{c})
		ri, err2 := builtin.Implies(rCmp, term.Formula{c})
		if err1 == nil && err2 == nil && li && ri {
			shared = append(shared, c)
		}
	}
	appliedL := theta.ApplyFormula(lCmp)
	for i, c := range appliedL {
		if !bothImply(appliedL, rCmp, c) {
			leftOnly = append(leftOnly, lCmpOrig[i])
		}
	}
	for _, c := range rCmp {
		if !bothImply(appliedL, rCmp, c) {
			rightOnly = append(rightOnly, c)
		}
	}
	return shared, leftOnly, rightOnly
}

func bothImply(a, b term.Formula, c term.Atom) bool {
	ai, err1 := builtin.Implies(a, term.Formula{c})
	bi, err2 := builtin.Implies(b, term.Formula{c})
	return err1 == nil && err2 == nil && ai && bi
}
