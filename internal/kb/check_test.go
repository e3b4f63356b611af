package kb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/analysis"
	"kdb/internal/governor"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// classified reports whether err is of a class a statement may fail
// with: refused as written (parse, statement check, system relation),
// stopped by the governor or its context, or failed by the knowledge
// base's state (closed, storage). Anything else reaches a client as an
// internal error.
func classified(err error) bool {
	var pe *parser.Error
	var ae *analysis.Error
	var re *sysrel.RefError
	var le *governor.LimitError
	return errors.As(err, &pe) || errors.As(err, &ae) || errors.As(err, &re) || errors.As(err, &le) ||
		errors.Is(err, governor.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrClosed) || errors.Is(err, storage.ErrDurability)
}

// refusalKB holds every kind of predicate a statement can misuse: a
// stored binary and unary one, a derived binary one, and a derived one
// with a comparison.
const refusalKB = `edge(a, b). p(a). path(X, Y) :- edge(X, Y). q(X) :- p(X), X > 1.`

// TestStatementRefusedAtBoundary: every statement the knowledge base
// cannot answer as asked is refused before it runs, by the named check,
// as an *analysis.Error that speaks of a statement; none is answered.
// Each row names a shape the check branches on.
func TestStatementRefusedAtBoundary(t *testing.T) {
	k := loadKB(t, refusalKB)
	for _, c := range []struct{ stmt, check string }{
		{"retrieve nosuch(X, Y).", "safety"},                          // unknown subject, nothing binds it
		{"retrieve p(X) where X > Y.", "safety"},                      // unbound comparison
		{"retrieve p(X) where p(X) or X > Y.", "safety"},              // in the second disjunct
		{"retrieve edge(a).", "arity"},                                // stored subject
		{"retrieve path(a).", "arity"},                                // derived subject
		{"retrieve p(X) where edge(X).", "arity"},                     // qualifier atom
		{"retrieve p(X) where p(X) or edge(X).", "arity"},             // second disjunct
		{"explain path(a).", "arity"},                                 // explain
		{"profile edge(a).", "arity"},                                 // profile
		{"retrieve r(X, Y) where edge(X, Y) and X = Y.", "qualifier"}, // §3.1
		{"describe q(X, Y).", "arity"},                                // subject arity
		{"describe q(X) where edge(X).", "arity"},                     // hypothesis atom
		{"describe q(X) where p(X) or edge(X).", "arity"},             // hypothesis disjunct
		{"describe q(X) where not edge(X).", "arity"},                 // negated conjunct
		{"describe where edge(X).", "arity"},                          // subjectless hypothesis
		{"describe edge(X, Y).", "subject"},                           // stored subject
		{"describe nosuch(X).", "subject"},                            // unknown subject
		{"describe nosuch(X) where not p(X).", "subject"},             // describe not
		{"describe * where not p(X).", "qualifier"},                   // 'not' in a wildcard
		{"describe where not p(X).", "qualifier"},                     // 'not' when subjectless
		{"describe *.", "qualifier"},                                  // a wildcard without hypothesis
		{"describe q(X) where true or p(X).", "qualifier"},            // an empty disjunct
		{"compare (describe path(X, Y)) with (describe edge(X, Y)).", "subject"},
		{"compare (describe path(X, Y)) with (describe q(X)).", "subject"},                 // arities differ
		{"compare (describe q(a)) with (describe q(b)).", "subject"},                       // constants do not align
		{"compare (describe q(X) where X > 5 and X < 2) with (describe q(X)).", "subject"}, // no consistent definition
	} {
		res, err := k.ExecStringContext(t.Context(), c.stmt)
		var ae *analysis.Error
		switch {
		case !errors.As(err, &ae):
			t.Errorf("%s: %v (%T) answering %v, want a refusal by the %s check", c.stmt, err, err, res, c.check)
		case len(ae.Diags) != 1 || ae.Diags[0].Analyzer != c.check:
			t.Errorf("%s: refused as %+v, want one diagnostic of the %s check", c.stmt, ae, c.check)
		case strings.Contains(err.Error(), "program"):
			t.Errorf("%s: the refusal calls the statement a program: %v", c.stmt, err)
		}
	}
	// A comparison is binary: only a statement built by hand can say
	// otherwise.
	unary := &parser.Retrieve{Subject: term.NewAtom("p", term.Var("X")), Where: term.Formula{term.NewAtom(term.PredGt, term.Var("X"))}}
	var ae *analysis.Error
	if _, err := k.ExecContext(t.Context(), unary); !errors.As(err, &ae) || ae.Diags[0].Analyzer != "arity" {
		t.Errorf("%v: %v, want a refusal by the arity check", unary, err)
	}
	for _, stmt := range []string{"retrieve sys_nosuch(X).", "retrieve p(X) where sys_relation(X).", "describe sys_nosuch."} {
		var re *sysrel.RefError
		if _, err := k.ExecStringContext(t.Context(), stmt); !errors.As(err, &re) {
			t.Errorf("%s: %v, want a *sysrel.RefError", stmt, err)
		}
	}
	// What the check must let through.
	for stmt, want := range map[string]string{
		"retrieve r(X) where p(X).":                     "r(a)",
		"retrieve nosuch(X) where p(X).":                "nosuch(a)",
		"retrieve edge(X, Y) where X = a.":              "edge(a, b)",
		"retrieve p(X) where p(X) or edge(X, b).":       "p(a)",
		"retrieve path(X, Y) where path(X, Y).":         "path(a, b)",
		"describe q(X) where p(X).":                     "q(X) <- X > 1",
		"describe path(X, Y) where edge(X, Y).":         "path(X, Y) <- true",
		"describe sys_relation.":                        "sys_relation(Name, Arity, Facts) — virtual relation",
		"compare (describe q(X)) with (describe q(Y)).": "q(X) vs q(X): equivalent",
	} {
		if got := execStr(t, k, stmt); !strings.Contains(got, want) {
			t.Errorf("%s = %q, want it to contain %q", stmt, got, want)
		}
	}
}

// TestUnbuildableDescriberRefused: over a loaded program whose recursion
// the §5.2 transformation cannot take, every describe form is refused
// with the diagnostics, or the failure, that say why.
func TestUnbuildableDescriberRefused(t *testing.T) {
	k := loadKB(t, "q(1). p(a). p(X) :- p(X), q(Y).")
	for _, stmt := range []string{
		"describe p(X).",
		"describe * where q(X).",
		"describe where p(X).",
		"describe p(X) where not q(X).",
		"compare (describe p(X)) with (describe p(Y)).",
	} {
		var ae *analysis.Error
		if _, err := k.ExecStringContext(t.Context(), stmt); !errors.As(err, &ae) || !strings.Contains(err.Error(), "degenerate") {
			t.Errorf("%s: %v, want a refusal naming the degenerate recursion", stmt, err)
		}
	}
}

// TestQualifierVarEqVarRefused: a qualifier may not equate two variables
// (§3.1); the statement check refuses it before any engine runs.
func TestQualifierVarEqVarRefused(t *testing.T) {
	k := loadKB(t, universityKB)
	for _, stmt := range []string{
		"retrieve student(X, Y, Z) where X = Y.",
		"explain honor(X) where student(X, M, G) and G = X.",
		"retrieve honor(X) where honor(X) or student(X, M, G) and M = G.",
	} {
		var ae *analysis.Error
		if _, err := k.ExecStringContext(t.Context(), stmt); !errors.As(err, &ae) || ae.Diags[0].Analyzer != "qualifier" {
			t.Errorf("%s: %v, want a refusal by the qualifier check", stmt, err)
		}
	}
}

// TestStatementCheckAllocs: the check allocates nothing on a statement it
// accepts, whatever its form.
func TestStatementCheckAllocs(t *testing.T) {
	k := loadKB(t, universityKB)
	for _, stmt := range []string{
		"retrieve honor(X) where student(X, math, G) and G > 3.5 or enroll(X, databases).",
		"retrieve answer(X) where can_ta(X, databases).",
		"describe can_ta(X, Y) where complete(X, Y, Z, 4) and not teach(X, Y).",
		"describe * where honor(X).",
		"describe honor(X) where student(X, math, G) or enroll(X, databases).",
		"compare (describe can_ta(X, databases)) with (describe can_ta(Y, databases)).",
	} {
		q, err := parser.ParseQuery(stmt)
		if err != nil {
			t.Fatal(err)
		}
		k.mu.RLock()
		allocs := testing.AllocsPerRun(100, func() {
			if err := k.checkLocked(q); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		})
		k.mu.RUnlock()
		if allocs != 0 {
			t.Errorf("%s: the check allocates %v times, want 0", stmt, allocs)
		}
	}
}

// TestUnsatisfiableHypothesisAnswered: a hypothesis whose comparisons no
// values satisfy gets the paper's special answer, once per subject of a
// wildcard.
func TestUnsatisfiableHypothesisAnswered(t *testing.T) {
	k := loadKB(t, `q(a). q(b). q(3). p(X) :- q(X), X <= 5.`)
	const special = "false (the hypothesis contradicts the knowledge base)"
	for stmt, want := range map[string]string{
		"describe p(X) where X > 7 and X < 3.":          special,
		"describe p(X) where q(X) and X > 7 and X < 3.": special,
		"describe * where X > 7 and X < 3.":             "p(W1): " + special,
		"describe p(X) where X > 3 and X < 7.":          "p(X) <- q(X) and X <= 5",
	} {
		if got := execStr(t, k, stmt); got != want {
			t.Errorf("%s = %q, want %q", stmt, got, want)
		}
	}
}

// TestIntensionalAnswerIsADescribe: with intensional answering on, a
// retrieve's knowledge is attached only when the statement reads as a
// describe the check accepts, so a stored subject or a trivially true
// disjunct answers the data alone.
func TestIntensionalAnswerIsADescribe(t *testing.T) {
	k := loadKB(t, refusalKB)
	k.SetIntensional(true)
	for stmt, knows := range map[string]bool{
		"retrieve path(X, Y) where edge(X, Y).":         true,
		"retrieve edge(X, Y).":                          false,
		"retrieve path(X, Y) where true or edge(X, Y).": false,
		"retrieve sys_relation(N, A, F).":               false,
	} {
		res, err := k.ExecStringContext(t.Context(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if got := res.Knowledge != nil; got != knows {
			t.Errorf("%s: knowledge attached %v, want %v", stmt, got, knows)
		}
	}
}
