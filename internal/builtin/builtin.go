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
// true, and the order predicates false. A NaN orders against no number,
// itself included, though `=` holds for it, as for every constant, by
// identity.
//
// The decision procedure follows Eval: an order atom demands comparable
// operands. A conjunction in which an order atom touches a NaN, or
// joins values of two kinds, is unsatisfiable, and a conjunction entails
// u < v or u <= v only when it forces u and v into one ordered kind (X =
// a entails neither X <= 5 nor X > 5; nothing entails X <= X of a free
// X, which may be a NaN).
//
// A compiled Network is flat: a short list of nodes, one n×n byte array
// for the order closure and the disequalities, and one allocation for up
// to 8 nodes; Reset compiles into a network's existing room. Sat,
// Contradicts and Network.Entails decide in scratch on the stack and
// allocate nothing for up to 8 nodes; larger networks fall back to the
// heap.
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
