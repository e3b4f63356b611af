package kb

import (
	"context"
	"strings"
	"testing"

	"kdb/internal/core"
	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// The paper's full example database (§2.2) with sample facts.
const universityKB = `
% --- EDB facts ---
student(ann, math, 3.9).
student(bob, cs, 3.5).
student(cora, math, 3.8).
student(dan, cs, 4).
professor(susan, cs, "x5-1212").
professor(tom, math, "x5-3434").
course(databases, 4).
course(datastructures, 3).
course(programming, 3).
enroll(ann, databases).
enroll(bob, databases).
enroll(dan, databases).
teach(susan, databases).
prereq(databases, datastructures).
prereq(datastructures, programming).
taught(susan, databases, f89, 3.5).
complete(ann, databases, f89, 3.6).
complete(cora, databases, f88, 4).

% --- IDB rules (verbatim from the paper) ---
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).

% --- schema annotations ---
@key student/3 1.
@name prior_step chain.
`

func loadKB(t testing.TB, src string) *KB {
	t.Helper()
	k := New()
	if err := k.LoadString(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func execStr(t testing.TB, k *KB, q string) string {
	t.Helper()
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res.String()
}

// evaluate runs one query under the read lock, unchecked, as a statement
// runs it (evaluateLocked).
func (k *KB) evaluate(ctx context.Context, q eval.Query, after func(*eval.Result), extra ...eval.EngineOption) (*eval.Result, *eval.EvalStats, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.evaluateLocked(ctx, q, after, extra...)
}

// explain runs one explain under the read lock, unchecked, as a statement
// runs it (explainLocked).
func (k *KB) explain(ctx context.Context, subject term.Atom, where term.Formula) (*ExecResult, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.explainLocked(ctx, subject, where)
}

func TestLoadClassifiesPredicates(t *testing.T) {
	k := loadKB(t, universityKB)
	cat := k.Catalog()
	for _, p := range []string{"student", "professor", "enroll", "prereq", "complete"} {
		if !cat.IsEDB(p) {
			t.Errorf("%s must be EDB", p)
		}
	}
	for _, p := range []string{"honor", "prior", "can_ta"} {
		if !cat.IsIDB(p) {
			t.Errorf("%s must be IDB", p)
		}
	}
	if k.FactCount() != 18 {
		t.Errorf("FactCount = %d, want 18", k.FactCount())
	}
	if len(k.Rules()) != 5 {
		t.Errorf("rules = %d, want 5", len(k.Rules()))
	}
	if got := cat.Lookup("student").Keys; len(got) != 1 || got[0][0] != 1 {
		t.Errorf("student keys = %v", got)
	}
	if cat.DisplayName("prior_step") != "chain" {
		t.Errorf("display name = %q", cat.DisplayName("prior_step"))
	}
}

func TestExecRetrieve(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `retrieve honor(X) where enroll(X, databases).`)
	want := "honor(ann)\nhonor(dan)"
	if got != want {
		t.Errorf("= %q, want %q", got, want)
	}
	if got := execStr(t, k, `retrieve honor(zoe).`); got != "no answers" {
		t.Errorf("= %q", got)
	}
}

func TestExecDescribe(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `describe honor(X).`)
	if got != "honor(X) <- student(X, Y, Z) and Z > 3.7" {
		t.Errorf("= %q", got)
	}
}

// TestDescribeRenamesRuleVariablesApart: a rule variable spelled like the
// describe search's fresh names (X_1) stays apart from the variable whose
// fresh name it spells. A retrieve over the same rule keeps them apart
// too: merging them would leave p with no answer.
func TestDescribeRenamesRuleVariablesApart(t *testing.T) {
	k := loadKB(t, "q(b).\nr(a).\np(X) :- q(X_1), r(X).\n")
	for stmt, want := range map[string]string{
		`describe p(X).`:            "p(X) <- q(X1) and r(X)",
		`describe p(X) where r(X).`: "p(X) <- q(X1)",
		`retrieve p(X).`:            "p(a)",
	} {
		if got := execStr(t, k, stmt); got != want {
			t.Errorf("%s = %q, want %q", stmt, got, want)
		}
	}
}

func TestExecDescribeUsesDisplayNames(t *testing.T) {
	k := loadKB(t, universityKB)
	k.SetDescribeOptions(core.Options{KeepSteps: true})
	got := execStr(t, k, `describe prior(X, Y) where prior(databases, Y).`)
	if !strings.Contains(got, "chain(databases, X)") {
		t.Errorf("step predicate must render with its @name: %q", got)
	}
	// Default (modified transformation) prefers the original predicate.
	k.SetDescribeOptions(core.Options{})
	got = execStr(t, k, `describe prior(X, Y) where prior(databases, Y).`)
	if !strings.Contains(got, "prior(X, databases)") {
		t.Errorf("modified rendering expected: %q", got)
	}
}

func TestExecDescribeNecessary(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3.`)
	if got != "no answer" {
		t.Errorf("= %q, want no answer", got)
	}
}

func TestExecDescribeNot(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `describe can_ta(X, Y) where not honor(X).`)
	if !strings.HasPrefix(got, "false") {
		t.Errorf("= %q, want false (honor necessary)", got)
	}
}

func TestExecSubjectless(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`)
	if !strings.HasPrefix(got, "false") {
		t.Errorf("= %q, want false (paper §6 ext. 3 with @key student/3 1)", got)
	}
	got = execStr(t, k, `describe where student(X, Y, Z) and Z > 3.8 and can_ta(X, U).`)
	if !strings.HasPrefix(got, "true") {
		t.Errorf("= %q, want true", got)
	}
}

func TestExecWildcard(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `describe * where honor(X).`)
	if !strings.Contains(got, "can_ta(X, W2) <- complete(X, W2,") {
		t.Errorf("= %q", got)
	}
	got = execStr(t, k, `describe * where professor(P, D, E).`)
	if got != "no subjects are derivable from this qualifier" {
		t.Errorf("= %q", got)
	}
}

func TestExecCompare(t *testing.T) {
	k := loadKB(t, universityKB+`
deans_list(X) :- student(X, M, G), G > 3.9.
`)
	got := execStr(t, k, `compare (describe honor(X)) with (describe deans_list(X)).`)
	if !strings.Contains(got, "left subsumes right") {
		t.Errorf("= %q", got)
	}
}

func TestExecErrors(t *testing.T) {
	k := loadKB(t, universityKB)
	for _, q := range []string{
		`describe student(X, Y, Z).`,             // EDB subject
		`describe * where not honor(X).`,         // not in wildcard
		`describe where not honor(X).`,           // not in subjectless
		`retrieve student(X, Y, Z) where X = Y.`, // var = var qualifier
	} {
		if _, err := k.ExecStringContext(context.Background(), q); err == nil {
			t.Errorf("ExecString(%q) succeeded, want error", q)
		}
	}
}

func TestAssertAndRetrieve(t *testing.T) {
	k := loadKB(t, universityKB)
	if err := k.Assert(term.NewAtom("enroll", term.Sym("cora"), term.Sym("databases"))); err != nil {
		t.Fatal(err)
	}
	got := execStr(t, k, `retrieve honor(X) where enroll(X, databases).`)
	if !strings.Contains(got, "honor(cora)") {
		t.Errorf("= %q", got)
	}
	// IDB predicates reject direct assertion.
	if err := k.Assert(term.NewAtom("honor", term.Sym("zoe"))); err == nil {
		t.Error("asserting an IDB fact must fail")
	}
	// Arity mismatch.
	if err := k.Assert(term.NewAtom("enroll", term.Sym("x"))); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestIncrementalLoadPromotesPredicate(t *testing.T) {
	k := New()
	if err := k.LoadString(`likes(ann, bob). likes(bob, cora).`); err != nil {
		t.Fatal(err)
	}
	if !k.Catalog().IsEDB("likes") {
		t.Fatal("likes starts extensional")
	}
	// A later rule promotes likes to IDB; its stored facts must remain
	// visible to queries.
	if err := k.LoadString(`likes(X, Z) :- likes(X, Y), likes(Y, Z).`); err != nil {
		t.Fatal(err)
	}
	if !k.Catalog().IsIDB("likes") {
		t.Fatal("likes must be promoted")
	}
	got := execStr(t, k, `retrieve likes(ann, X).`)
	want := "likes(ann, bob)\nlikes(ann, cora)"
	if got != want {
		t.Errorf("= %q, want %q", got, want)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`student(a). student(a, b).`,           // arity conflict
		`p(X) :- q(X). q(a, b). q(c) :- p(c).`, // q arity conflict
		`@key student/3 1. student(a, b).`,     // @key arity conflict
	}
	for _, src := range cases {
		k := New()
		if err := k.LoadString(src); err == nil {
			t.Errorf("LoadString(%q) succeeded, want error", src)
		}
	}
}

func TestValidate(t *testing.T) {
	k := loadKB(t, universityKB)
	if v := k.Validate(); len(v) != 0 {
		t.Errorf("university KB must be clean: %v", v)
	}
	k2 := loadKB(t, `
sym(X, Y) :- sym(Y, X).
sym(X, Y) :- base(X, Y).
`)
	if v := k2.Validate(); len(v) == 0 {
		t.Error("symmetry rule must be flagged")
	}
}

func TestDurableKB(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString(`student(ann, math, 3.9). student(bob, cs, 3.2).`); err != nil {
		t.Fatal(err)
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: facts recovered, rules reloaded from source.
	k2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.FactCount() != 2 {
		t.Fatalf("recovered %d facts, want 2", k2.FactCount())
	}
	if err := k2.LoadString(`honor(X) :- student(X, M, G), G > 3.7.`); err != nil {
		t.Fatal(err)
	}
	got := execStr(t, k2, `retrieve honor(X).`)
	if got != "honor(ann)" {
		t.Errorf("= %q", got)
	}
}

func TestExecResultStringForms(t *testing.T) {
	k := loadKB(t, universityKB)
	res, err := k.ExecContext(context.Background(), &parser.Retrieve{Subject: term.NewAtom("honor", term.Var("X"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrieve == nil || res.String() == "" {
		t.Error("retrieve result must render")
	}
	if (&ExecResult{}).String() != "no result" {
		t.Error("zero ExecResult must render as no result")
	}
}

func BenchmarkExecRetrieve(b *testing.B) {
	k := loadKB(b, universityKB)
	q, err := parser.ParseQuery(`retrieve honor(X) where enroll(X, databases).`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.ExecContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecDescribe(b *testing.B) {
	k := loadKB(b, universityKB)
	q, err := parser.ParseQuery(`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.ExecContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProvenanceRendering(t *testing.T) {
	k := loadKB(t, universityKB)
	k.SetProvenance(true)
	got := execStr(t, k, `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`)
	if !strings.Contains(got, "via can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3,") {
		t.Errorf("provenance missing rule 1: %q", got)
	}
	if !strings.Contains(got, "via honor(X) :- student(X, Y, Z), Z > 3.7.") {
		t.Errorf("provenance missing honor rule: %q", got)
	}
	// Contradictions and empty answers render without provenance noise.
	got = execStr(t, k, `describe honor(X) where student(X, math, V) and V < 3.`)
	if !strings.Contains(got, "contradicts") || strings.Contains(got, "via ") {
		t.Errorf("= %q", got)
	}
	k.SetProvenance(false)
	got = execStr(t, k, `describe honor(X).`)
	if strings.Contains(got, "via ") {
		t.Errorf("provenance off must not render: %q", got)
	}
}
