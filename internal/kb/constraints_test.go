package kb

import (
	"context"
	"strings"
	"testing"

	"kdb/internal/parser"
)

// Tests for integrity constraints — the paper's second Horn-clause form
// ¬(p1 ∧ … ∧ pn), written `:- p1, …, pn.` (§2.1).

func TestParseConstraints(t *testing.T) {
	prog, err := parser.ParseProgram(`
student(ann, math, 3.9).
:- enroll(X, C), suspended(X).
:- student(X, M, G), G > 4.
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Constraints) != 2 || len(prog.Clauses) != 1 {
		t.Fatalf("constraints=%d clauses=%d", len(prog.Constraints), len(prog.Clauses))
	}
	if prog.Constraints[0][1].Pred != "suspended" {
		t.Errorf("constraint 0 = %v", prog.Constraints[0])
	}
	// A constraint of comparisons only is rejected.
	if _, err := parser.ParseProgram(`:- X > 3.`); err == nil {
		t.Error("comparison-only constraint must fail")
	}
	if _, err := parser.ParseProgram(`:- .`); err == nil {
		t.Error("empty constraint must fail")
	}
}

func TestCheckConstraintsOnData(t *testing.T) {
	k := loadKB(t, `
enroll(ann, databases).
enroll(bob, databases).
suspended(bob).
:- enroll(X, C), suspended(X).
`)
	if got := len(k.Constraints()); got != 1 {
		t.Fatalf("Constraints = %d", got)
	}
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "bob") {
		t.Errorf("violations = %v", violations)
	}
	// Clean data: no violations.
	k2 := loadKB(t, `
enroll(ann, databases).
:- enroll(X, C), suspended(X).
`)
	violations, err = k2.CheckConstraintsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("violations = %v", violations)
	}
}

func TestConstraintsOverIDBPredicates(t *testing.T) {
	// A constraint naming derived concepts is checked through the rules.
	k := loadKB(t, `
student(ann, math, 3.9).
complete(ann, probation_course, f89, 1.5).
honor(X) :- student(X, M, G), G > 3.7.
failing(X) :- complete(X, C, S, G), G < 2.
:- honor(X), failing(X).
`)
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Errorf("violations = %v", violations)
	}
}

func TestPossibleRespectsConstraints(t *testing.T) {
	// The intro's third example: "Could an honor student be foreign?" —
	// with a constraint forbidding it, the hypothetical contradicts the
	// stored knowledge.
	src := `
honor(X) :- student2(X, G, N), G > 3.7.
foreign(X) :- student2(X, G, N), N != usa.
@key student2/3 1.
`
	kAllowed := loadKB(t, src)
	res, err := kAllowed.ExecStringContext(context.Background(), `describe where honor(X) and foreign(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "true") {
		t.Errorf("without a constraint the situation is possible: %q", res)
	}
	kForbidden := loadKB(t, src+`
:- honor(X), foreign(X).
`)
	res, err = kForbidden.ExecStringContext(context.Background(), `describe where honor(X) and foreign(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "false") {
		t.Errorf("the constraint must forbid the situation: %q", res)
	}
}

func TestPossibleConstraintWithComparisons(t *testing.T) {
	// A purely extensional constraint with a comparison: nobody may take
	// more than 20 units.
	k := loadKB(t, `
takes(X, U) :- enrollment(X, U).
:- enrollment(X, U), U > 20.
`)
	res, err := k.ExecStringContext(context.Background(), `describe where takes(X, U) and U > 25.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "false") {
		t.Errorf("25 units contradicts the 20-unit constraint: %q", res)
	}
	res, err = k.ExecStringContext(context.Background(), `describe where takes(X, U) and U > 15.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "true") {
		t.Errorf("16 units is fine: %q", res)
	}
}

func TestDescribeNotRespectsConstraints(t *testing.T) {
	// eligible via staff is forbidden by a constraint, so excluding honor
	// leaves NO consistent route.
	k := loadKB(t, `
eligible(X) :- honor(X).
eligible(X) :- staff(X).
:- staff(X).
`)
	res, err := k.ExecStringContext(context.Background(), `describe eligible(X) where not honor(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "false") {
		t.Errorf("the staff route is forbidden: %q", res)
	}
}

func TestConstraintArityChecked(t *testing.T) {
	k := New()
	if err := k.LoadString(`
enroll(ann, databases).
:- enroll(X).
`); err == nil {
		t.Error("constraint with wrong arity must fail to load")
	}
}

func TestValidateMetaIncludesConstraints(t *testing.T) {
	k := loadKB(t, `
p(a).
q(a).
:- p(X), q(X).
`)
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Errorf("violations = %v", violations)
	}
}
