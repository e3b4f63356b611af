package eval

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

func parseRules(t *testing.T, src string) []term.Rule {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Clauses
}

func TestCheckSafetyExported(t *testing.T) {
	good := parseRules(t, `
honor(X) :- student(X, M, G), G > 3.7.
p(X, Z) :- q(X, Y), Z = Y.
r(X) :- s(X), X != a.
fact(a, 1).
`)
	if err := checkSafety(good); err != nil {
		t.Errorf("safe rules rejected: %v", err)
	}
	cases := []struct {
		src, wantSub string
	}{
		{`p(X) :- q(Y).`, "head variable"},
		{`p(X) :- X > 3, q(X, Y).`, ""}, // X bound by q: safe
		{`p(X) :- q(X), Y > 3.`, "comparison variable"},
		{`p(X) :- q(X), X != Z.`, "comparison variable"},
		{`p(X) :- X = Y.`, "head variable"}, // neither side bound
	}
	for _, c := range cases {
		err := checkSafety(parseRules(t, c.src))
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("checkSafety(%q) = %v, want nil", c.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkSafety(%q) = nil, want error about %q", c.src, c.wantSub)
		}
	}
}

// Non-ground derived heads must be reported, not silently produced:
// a bodiless rule with variables would derive p(X) for unbound X.
func TestNonGroundDerivationRejected(t *testing.T) {
	st := storage.NewMemory()
	rules := []term.Rule{{Head: term.NewAtom("p", term.Var("X"))}}
	in := Input{Store: st, Rules: rules}
	for _, e := range []Engine{NewSemiNaive(in), NewTopDown(in)} {
		_, err := e.RetrieveContext(context.Background(), Query{Subject: term.NewAtom("p", term.Var("X"))})
		if err == nil {
			t.Errorf("%s must reject a universally quantified bodiless rule", e.Name())
		}
	}
}

// TestDerivedArityMismatch: rules using a derived predicate at two
// arities never reach an engine through kb (its load analysis refuses
// them). Handed to an engine directly, no panic escapes, and an error,
// when there is one, names the predicate: semi-naive, the engine kb runs,
// stops on the probe's arity invariant, its panic contained.
func TestDerivedArityMismatch(t *testing.T) {
	st := storage.NewMemory()
	if _, err := st.InsertAtom(term.NewAtom("q", term.Sym("a"))); err != nil {
		t.Fatal(err)
	}
	rules := parseRules(t, `
p(X) :- q(X).
r(X) :- p(X, X).
`)
	in := Input{Store: st, Rules: rules}
	for _, e := range engines(in) {
		_, err := e.RetrieveContext(context.Background(), Query{Subject: term.NewAtom("r", term.Var("X"))})
		var pe *governor.PanicError
		switch {
		case err != nil && !regexp.MustCompile(`\bp\b`).MatchString(err.Error()):
			t.Errorf("%s: %v, want an error naming p", e.Name(), err)
		case e.Name() == "seminaive" && (!errors.As(err, &pe) || !strings.Contains(err.Error(), "p used with arity 2, derived with 1")):
			t.Errorf("%s: %v, want the contained arity invariant", e.Name(), err)
		}
	}
}

// The paper's Example 2 path: ad-hoc subjects over recursive qualifiers.
func TestAdHocSubjectOverRecursion(t *testing.T) {
	st := storage.NewMemory()
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if _, err := st.InsertAtom(term.NewAtom("edge", term.Sym(pair[0]), term.Sym(pair[1]))); err != nil {
			t.Fatal(err)
		}
	}
	rules := parseRules(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
	in := Input{Store: st, Rules: rules}
	q := Query{
		Subject: term.NewAtom("answer", term.Var("X")),
		Where: term.Formula{
			term.NewAtom("path", term.Sym("a"), term.Var("X")),
			term.NewAtom("path", term.Var("X"), term.Sym("d")),
		},
	}
	for _, e := range []Engine{NewSemiNaive(in), NewTopDown(in)} {
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		got := res.Strings()
		if len(got) != 2 || got[0] != "b" || got[1] != "c" {
			t.Errorf("%s: answer = %v, want [b c]", e.Name(), got)
		}
	}
}

// Comparisons inside recursive rule bodies.
func TestComparisonInRecursiveRule(t *testing.T) {
	st := storage.NewMemory()
	for i, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if _, err := st.InsertAtom(term.NewAtom("hop",
			term.Sym(pair[0]), term.Sym(pair[1]), term.Num(float64(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	rules := parseRules(t, `
cheap(X, Y) :- hop(X, Y, C), C < 3.
cheap(X, Y) :- hop(X, Z, C), C < 3, cheap(Z, Y).
`)
	in := Input{Store: st, Rules: rules}
	for _, e := range []Engine{NewSemiNaive(in), NewTopDown(in)} {
		res, err := e.RetrieveContext(context.Background(), Query{Subject: term.NewAtom("cheap", term.Sym("a"), term.Var("Y"))})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		got := res.Strings()
		// a→b (1), b→c (2) are cheap; c→d (3) is not.
		if len(got) != 2 || got[0] != "b" || got[1] != "c" {
			t.Errorf("%s: cheap from a = %v", e.Name(), got)
		}
	}
}
