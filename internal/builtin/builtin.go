// Package builtin implements the paper's set R of built-in predicates —
// the binary comparisons =, !=, <, <=, >, >= — in two capacities:
//
//   - ground evaluation, used by the retrieve engines (§3.1), and
//   - a decision procedure for conjunctions of comparison atoms over
//     variables and constants, deciding satisfiability and implication.
//
// The decision procedure is what Section 4 of the paper needs for its
// special handling of comparison formulas in knowledge answers: a
// comparison β in a candidate answer body is dropped when the hypothesis
// comparison α implies it (α ⊢ β), and the whole answer is discarded when
// α ∧ β is unsatisfiable. The same procedure powers the §6 possibility
// checker and the redundancy eliminator.
//
// Numbers are ordered numerically over a dense domain (ℝ); symbols and
// strings are ordered lexicographically within their own kind. Constants
// of different kinds are incomparable: `=` between them is false, `!=`
// true, and the order predicates false.
package builtin

import (
	"fmt"
	"strings"

	"kdb/internal/term"
)

// Eval evaluates a ground comparison atom. It reports an error when the
// atom is not a comparison or not ground.
func Eval(a term.Atom) (bool, error) {
	if !term.IsComparison(a) {
		return false, fmt.Errorf("builtin: %v is not a comparison", a)
	}
	l, r := a.Args[0], a.Args[1]
	if l.IsVar() || r.IsVar() {
		return false, fmt.Errorf("builtin: comparison %v is not ground", a)
	}
	cmp, comparable := CompareConst(l, r)
	switch a.Pred {
	case term.PredEq:
		return l == r || comparable && cmp == 0, nil
	case term.PredNe:
		return l != r && (!comparable || cmp != 0), nil
	case term.PredLt:
		return comparable && cmp < 0, nil
	case term.PredLe:
		return comparable && cmp <= 0, nil
	case term.PredGt:
		return comparable && cmp > 0, nil
	case term.PredGe:
		return comparable && cmp >= 0, nil
	}
	return false, fmt.Errorf("builtin: unknown comparison %q", a.Pred)
}

// CompareConst orders two constants. comparable is false when the
// constants are of different kinds (a number and a symbol, say), or when
// either is a NaN, which no number orders against; then cmp is
// meaningless. Symbols and strings of the same kind compare
// lexicographically; numbers numerically. Eval's `=` holds for
// identical constants too, so a NaN equals itself.
func CompareConst(a, b term.Term) (cmp int, comparable bool) {
	if a.Kind() != b.Kind() {
		return 0, false
	}
	switch a.Kind() {
	case term.KindNumber:
		av, bv := a.Float(), b.Float()
		switch {
		case av < bv:
			return -1, true
		case av > bv:
			return 1, true
		case av == bv:
			return 0, true
		default: // a NaN
			return 0, false
		}
	case term.KindSymbol, term.KindString:
		return strings.Compare(a.Name(), b.Name()), true
	default:
		return 0, false
	}
}

// Normalize rewrites a comparison atom so its predicate is one of
// =, !=, <, <= (flipping > and >= around), which halves the cases the
// solver must consider. Non-comparison atoms are returned unchanged.
func Normalize(a term.Atom) term.Atom {
	if !term.IsComparison(a) {
		return a
	}
	switch a.Pred {
	case term.PredGt:
		return term.NewAtom(term.PredLt, a.Args[1], a.Args[0])
	case term.PredGe:
		return term.NewAtom(term.PredLe, a.Args[1], a.Args[0])
	default:
		return a
	}
}

// Negate returns the complementary comparison: ¬(a < b) is (a >= b), etc.
func Negate(a term.Atom) (term.Atom, error) {
	if !term.IsComparison(a) {
		return term.Atom{}, fmt.Errorf("builtin: cannot negate non-comparison %v", a)
	}
	l, r := a.Args[0], a.Args[1]
	switch a.Pred {
	case term.PredEq:
		return term.NewAtom(term.PredNe, l, r), nil
	case term.PredNe:
		return term.NewAtom(term.PredEq, l, r), nil
	case term.PredLt:
		return term.NewAtom(term.PredGe, l, r), nil
	case term.PredLe:
		return term.NewAtom(term.PredGt, l, r), nil
	case term.PredGt:
		return term.NewAtom(term.PredLe, l, r), nil
	case term.PredGe:
		return term.NewAtom(term.PredLt, l, r), nil
	}
	return term.Atom{}, fmt.Errorf("builtin: unknown comparison %q", a.Pred)
}

// Split separates a formula into its comparison atoms and its ordinary
// (EDB/IDB) atoms, preserving order within each part.
func Split(f term.Formula) (comparisons, ordinary term.Formula) {
	for _, a := range f {
		if term.IsComparison(a) {
			comparisons = append(comparisons, a)
		} else {
			ordinary = append(ordinary, a)
		}
	}
	return comparisons, ordinary
}
