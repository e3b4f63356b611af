package eval

import (
	"fmt"
	"testing"

	"kdb/internal/term"
)

// TestCallKeyManyVariables: variable ids must be encoded injectively. The
// old single-byte encoding ('0'+id) wraps at 256, making an atom whose
// 257th distinct variable repeats nothing collide with one whose last
// position repeats the first variable.
func TestCallKeyManyVariables(t *testing.T) {
	const n = 257
	distinct := make([]term.Term, n)
	for i := range distinct {
		distinct[i] = term.Var(fmt.Sprintf("V%d", i))
	}
	repeated := append([]term.Term(nil), distinct...)
	repeated[n-1] = distinct[0]
	a := term.Atom{Pred: "p", Args: distinct}
	b := term.Atom{Pred: "p", Args: repeated}
	if callKey(a) == callKey(b) {
		t.Error("257 distinct variables collide with a repeated-variable atom")
	}
	// Renaming must not matter: the key abstracts variable identity.
	renamed := make([]term.Term, n)
	for i := range renamed {
		renamed[i] = term.Var(fmt.Sprintf("W%d", i))
	}
	if callKey(a) != callKey(term.Atom{Pred: "p", Args: renamed}) {
		t.Error("alpha-equivalent calls must share a table key")
	}
	// Constants at different positions must not be confused with ids.
	c1 := term.NewAtom("p", term.Sym("x"), term.Var("A"))
	c2 := term.NewAtom("p", term.Var("A"), term.Sym("x"))
	if callKey(c1) == callKey(c2) {
		t.Error("bound-position pattern must be part of the key")
	}
}
