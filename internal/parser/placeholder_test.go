package parser

import (
	"strings"
	"testing"

	"kdb/internal/term"
)

func TestPlaceholdersParseInQueries(t *testing.T) {
	q, err := ParseQuery("retrieve takes($1, C) where student($1, $2).")
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountPlaceholders(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("CountPlaceholders = %d, want 2", n)
	}
}

func TestPlaceholdersRejectedInPrograms(t *testing.T) {
	_, err := ParseProgram("p($1).")
	if err == nil || !strings.Contains(err.Error(), "placeholders") {
		t.Errorf("program with placeholder: err=%v, want placeholder rejection", err)
	}
}

func TestPlaceholderLexErrors(t *testing.T) {
	if _, err := ParseQuery("retrieve p($)."); err == nil {
		t.Error("bare '$' must be rejected")
	}
	// $0 lexes as a variable, but CountPlaceholders rejects the index.
	q, err := ParseQuery("retrieve p($0).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountPlaceholders(q); err == nil {
		t.Error("$0 must be rejected by CountPlaceholders")
	}
}

func TestPlaceholdersMustBeContiguous(t *testing.T) {
	q, err := ParseQuery("retrieve p($1, $3).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountPlaceholders(q); err == nil || !strings.Contains(err.Error(), "$2") {
		t.Errorf("gap in placeholders: err=%v, want missing-$2 error", err)
	}
}

func TestBindPlaceholders(t *testing.T) {
	tmpl, err := ParseQuery("retrieve takes($1, C) where takes($1, C) and grade($1, C, $2).")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindPlaceholders(tmpl, []term.Term{term.Sym("ann"), term.Num(4)})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := bound.(*Retrieve)
	if !ok {
		t.Fatalf("bound query is %T", bound)
	}
	if got := r.Subject.String(); got != "takes(ann, C)" {
		t.Errorf("bound subject = %s", got)
	}
	if got := r.Where[1].String(); got != "grade(ann, C, 4)" {
		t.Errorf("bound qualifier = %s", got)
	}
	// The template must be untouched (cached statements are shared).
	orig := tmpl.(*Retrieve)
	if got := orig.Subject.String(); got != "takes($1, C)" {
		t.Errorf("template mutated: %s", got)
	}

	// Arity mismatches and variable arguments are rejected.
	if _, err := BindPlaceholders(tmpl, []term.Term{term.Sym("ann")}); err == nil {
		t.Error("short argument list must fail")
	}
	if _, err := BindPlaceholders(tmpl, []term.Term{term.Sym("ann"), term.Var("X")}); err == nil {
		t.Error("variable argument must fail")
	}
}

func TestBindPlaceholdersExplainAndDescribe(t *testing.T) {
	q, err := ParseQuery("explain anc($1, X).")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindPlaceholders(q, []term.Term{term.Sym("tom")})
	if err != nil {
		t.Fatal(err)
	}
	if got := bound.(*Explain).Subject.String(); got != "anc(tom, X)" {
		t.Errorf("bound explain subject = %s", got)
	}

	d, err := ParseQuery("describe honor(X) where dean_list(X) and year(X, $1).")
	if err != nil {
		t.Fatal(err)
	}
	db, err := BindPlaceholders(d, []term.Term{term.Num(1990)})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.(*Describe).Where[1].String(); got != "year(X, 1990)" {
		t.Errorf("bound describe qualifier = %s", got)
	}
}

// TestBindPlaceholdersEveryStatementKind: every statement form counts and
// binds its placeholders, profile included.
func TestBindPlaceholdersEveryStatementKind(t *testing.T) {
	for _, src := range []string{
		"retrieve p($1, X) where q(X, $2) or r($2).",
		"describe p($1, X) where q(X, $2) and not r($2).",
		"describe p($1, X) where q(X, $2) or r($2).",
		"describe where q($1, X) and r(X, $2).",
		"explain p($1, X) where q(X, $2).",
		"profile p($1, X) where q(X, $2).",
		"compare (describe p($1, X)) with (describe q(X, $2)).",
	} {
		tmpl, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if n, err := CountPlaceholders(tmpl); n != 2 || err != nil {
			t.Errorf("%s: CountPlaceholders = %d, %v, want 2", src, n, err)
		}
		bound, err := BindPlaceholders(tmpl, []term.Term{term.Sym("a"), term.Num(1)})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := bound.String(); strings.Contains(got, "$") || !strings.Contains(got, "(a, X)") {
			t.Errorf("%s bound to %s", src, got)
		}
		if strings.Contains(tmpl.String(), "(a, X)") {
			t.Errorf("%s: binding changed the template", src)
		}
	}
}
