package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/term"
)

func formula(t testing.TB, src string) term.Formula {
	t.Helper()
	f, err := parser.ParseFormula(src)
	if err != nil {
		t.Fatalf("parse formula %q: %v", src, err)
	}
	return f
}

func atomOf(t testing.TB, src string) term.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatalf("parse atom %q: %v", src, err)
	}
	return a
}

// --- §6 extension 1: where necessary ---

func TestNecessaryFiltersUnusedHypotheses(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `honor(X)`)

	// The paper's example: describe honor where necessary complete(...)
	// and U > 3.3 — complete never participates in honor's derivations,
	// so no answer survives.
	ans, err := d.DescribeNecessary(subject, formula(t, `complete(X, Y, Z, U) and U > 3.3`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Formulas) != 0 {
		t.Errorf("necessary hypothesis unused: want no answers, got %q", ans.SortedStrings())
	}

	// A hypothesis that IS fully used survives the filter.
	ans, err = d.DescribeNecessary(subject, formula(t, `student(X, math, V) and V > 3.7`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Formulas) != 1 {
		t.Fatalf("fully used hypothesis: want 1 answer, got %q", ans.SortedStrings())
	}

	// Partially used: student identifies, the comparison never helps
	// (V > 3.5 does not imply Z > 3.7) — filtered out.
	ans, err = d.DescribeNecessary(subject, formula(t, `student(X, math, V) and V > 3.5`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Formulas) != 0 {
		t.Errorf("partially used hypothesis must be filtered, got %q", ans.SortedStrings())
	}
}

// --- §6 extension 2: describe … where not h ---

func TestDescribeNotHonorIsNecessary(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	// The paper's example: can_ta without honor → false (honor necessary).
	n, err := d.DescribeNot(atomOf(t, `can_ta(X, Y)`), formula(t, `honor(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Possible {
		t.Errorf("honor is necessary for can_ta; witnesses: %v", n.Witnesses)
	}
	if !strings.Contains(n.String(), "false") {
		t.Errorf("String = %q", n.String())
	}
}

func TestDescribeNotAlternativeRouteExists(t *testing.T) {
	d := newDescriber(t, `
eligible(X) :- honor(X).
eligible(X) :- staff(X).
`, Options{})
	// eligible without honor: possible via the staff route.
	n, err := d.DescribeNot(atomOf(t, `eligible(X)`), formula(t, `honor(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Possible {
		t.Error("eligibility without honor must be possible via staff")
	}
	if len(n.Witnesses) == 0 || n.Witnesses[0][0].Pred != "staff" {
		t.Errorf("witnesses = %v", n.Witnesses)
	}
	// eligible without both routes: impossible.
	n, err = d.DescribeNot(atomOf(t, `eligible(X)`), formula(t, `honor(X) and staff(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Possible {
		t.Error("excluding both routes must make eligibility impossible")
	}
}

func TestDescribeNotBansDeepAtoms(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	// Banning `student` (which honor needs transitively) also blocks
	// can_ta: the ban applies at every level of the derivation.
	n, err := d.DescribeNot(atomOf(t, `can_ta(X, Y)`), formula(t, `student(X, M, G)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Possible {
		t.Errorf("student is (deeply) necessary for can_ta: %v", n.Witnesses)
	}
}

func TestDescribeNotRejectsNonIDBSubject(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	if _, err := d.DescribeNot(atomOf(t, `student(X, Y, Z)`), formula(t, `honor(X)`), nil); err == nil {
		t.Error("EDB subject must be rejected")
	}
}

// --- §6 extension 3: subjectless describe (possibility) ---

func keysStudent() map[string][][]int {
	return map[string][][]int{"student": {{1}}}
}

func newDescriberWithKeys(t testing.TB, src string, keys map[string][][]int) *Describer {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var rules []term.Rule
	for _, c := range p.Clauses {
		if !c.IsFact() {
			rules = append(rules, c)
		}
	}
	d, err := New(rules, keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPossiblePaperExample(t *testing.T) {
	// The paper's subjectless query: can a student with GPA under 3.5 be
	// a teaching assistant? With student's name as a key, the GPA in the
	// hypothesis and the GPA required by honor must be the same value —
	// contradiction, so: false.
	d := newDescriberWithKeys(t, universityIDB, keysStudent())
	p, err := d.Possible(formula(t, `student(X, Y, Z) and Z < 3.5 and can_ta(X, U)`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Possible {
		t.Errorf("paper X3 expects false; witness: %v", p.Witness)
	}
	if len(p.Conflicts) == 0 {
		t.Error("conflicts should explain the verdict")
	}
	if !strings.Contains(p.String(), "false") {
		t.Errorf("String = %q", p.String())
	}
}

func TestPossibleWithoutKeyIsTrue(t *testing.T) {
	// Without the key declaration nothing forces the two student atoms to
	// agree, so the hypothetical situation is (vacuously) possible — this
	// is why the paper's intended reading needs the functional constraint.
	d := newDescriber(t, universityIDB, Options{})
	p, err := d.Possible(formula(t, `student(X, Y, Z) and Z < 3.5 and can_ta(X, U)`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Possible {
		t.Error("without keys the situation is not refutable")
	}
}

func TestPossibleConsistentSituation(t *testing.T) {
	d := newDescriberWithKeys(t, universityIDB, keysStudent())
	// GPA over 3.8 is perfectly consistent with being a TA.
	p, err := d.Possible(formula(t, `student(X, Y, Z) and Z > 3.8 and can_ta(X, U)`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Possible {
		t.Errorf("consistent situation judged impossible; conflicts: %v", p.Conflicts)
	}
	if len(p.Witness) == 0 {
		t.Error("witness must be reported")
	}
}

func TestPossiblePureComparisons(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	p, err := d.Possible(formula(t, `X > 3 and X < 2`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Possible {
		t.Error("X > 3 and X < 2 is impossible")
	}
	if _, err := d.Possible(nil); err == nil {
		t.Error("empty hypothesis must be rejected")
	}
}

// Intro example 3: "Could an honor student be foreign?" — hypothetical
// knowledge checked against the stored knowledge.
func TestPossibleIntroForeignHonor(t *testing.T) {
	src := `
honor(X) :- student2(X, G, N), G > 3.7.
foreign(X) :- student2(X, G, N), N != usa.
`
	d := newDescriberWithKeys(t, src, map[string][][]int{"student2": {{1}}})
	p, err := d.Possible(formula(t, `honor(X) and foreign(X)`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Possible {
		t.Errorf("an honor student can be foreign; conflicts: %v", p.Conflicts)
	}
	// But an honor student with GPA 2.0 cannot exist.
	p, err = d.Possible(formula(t, `honor(X) and student2(X, 2, N)`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Possible {
		t.Error("honor with GPA 2.0 must be impossible under the key")
	}
}

// --- §6 extension 4: wildcard subject ---

func TestWildcardDescribe(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	// The paper's example: the advantages of honor status.
	entries, err := d.DescribeWildcard(formula(t, `honor(X)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Subject.Pred != "can_ta" {
		t.Fatalf("entries = %+v, want just can_ta", entries)
	}
	strs := entries[0].Answers.SortedStrings()
	if len(strs) != 2 {
		t.Errorf("can_ta answers = %q", strs)
	}
	// The synthetic W1 head variable is folded into the hypothesis's X,
	// matching the paper's presentation of the extension.
	for _, s := range strs {
		if !strings.HasPrefix(s, "can_ta(X, W2) <- complete(X, W2,") {
			t.Errorf("unexpected wildcard answer %q", s)
		}
	}
	if _, err := d.DescribeWildcard(nil); err == nil {
		t.Error("wildcard without hypothesis must be rejected")
	}
}

func TestWildcardMultipleSubjects(t *testing.T) {
	d := newDescriber(t, `
honor(X) :- student(X, M, G), G > 3.7.
deans_list(X) :- student(X, M, G), G > 3.9.
award(X) :- honor(X), thesis(X).
`, Options{})
	entries, err := d.DescribeWildcard(formula(t, `student(X, math, G) and G > 3.95`))
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]string, 0, len(entries))
	for _, e := range entries {
		preds = append(preds, e.Subject.Pred)
	}
	want := []string{"award", "deans_list", "honor"}
	if len(preds) != 3 || preds[0] != want[0] || preds[1] != want[1] || preds[2] != want[2] {
		t.Errorf("subjects = %v, want %v", preds, want)
	}
	// honor and deans_list fully collapse (G > 3.95 implies both bounds).
	for _, e := range entries {
		if e.Subject.Pred == "honor" {
			if e.Answers.Formulas[0].String() != "honor(X) <- true" {
				t.Errorf("honor = %q", e.Answers.Formulas[0].String())
			}
		}
	}
}

// The wildcard runs one search per concept; the governor spans them all.
func TestWildcardDescribeGoverned(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	hyp := formula(t, `honor(X)`)

	entries, nodes, err := d.DescribeWildcardContext(context.Background(), hyp, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Three concepts are searched (honor itself is named by the
	// hypothesis and skipped); the count is the sum over all of them, not
	// only over the one that made an entry.
	perConcept := 0
	for _, q := range []string{`describe can_ta(W1, W2) where honor(X).`, `describe prior(W1, W2) where honor(X).`} {
		perConcept += describe(t, d, q).Nodes
	}
	if len(entries) != 1 || nodes != perConcept {
		t.Errorf("%d entries, %d nodes; want 1 entry and the %d nodes of the per-concept searches", len(entries), nodes, perConcept)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := d.DescribeWildcardContext(ctx, hyp, governor.Limits{}); !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("cancelled context: err = %v, want governor.ErrCanceled", err)
	}
	var le *governor.LimitError
	_, _, err = d.DescribeWildcardContext(context.Background(), hyp, governor.Limits{MaxDescribeNodes: 1})
	if !errors.As(err, &le) || le.Kind != governor.LimitDescribeNodes {
		t.Errorf("MaxDescribeNodes 1: err = %v, want a describe-nodes *LimitError", err)
	}
}

// --- §6 final extension: compare ---

const compareIDB = `
honor(X) :- student(X, M, G), G > 3.7.
deans_list(X) :- student(X, M, G), G > 3.9.
sporty(X) :- athlete(X, S).
varsity(X) :- athlete(X, S), letter(X, S).
`

func TestCompareSubsumption(t *testing.T) {
	d := newDescriber(t, compareIDB, Options{})
	// Every dean's-list student is an honor student: honor subsumes.
	c, err := d.Compare(atomOf(t, `honor(X)`), nil, atomOf(t, `deans_list(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != RelLeftSubsumesRight {
		t.Errorf("relation = %v, want left subsumes right", c.Relation)
	}
	// The shared concept is the weaker condition.
	if got := c.Shared.String(); !strings.Contains(got, "student(") || !strings.Contains(got, "> 3.7") {
		t.Errorf("shared = %q", got)
	}
	// The difference is the stronger GPA bound on the right.
	if got := c.RightOnly.String(); !strings.Contains(got, "> 3.9") {
		t.Errorf("rightOnly = %q", got)
	}
	// Reversed orientation flips the relation.
	c, err = d.Compare(atomOf(t, `deans_list(X)`), nil, atomOf(t, `honor(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != RelRightSubsumesLeft {
		t.Errorf("relation = %v, want right subsumes left", c.Relation)
	}
}

func TestCompareEquivalent(t *testing.T) {
	d := newDescriber(t, `
a(X) :- p(X, Y), q(Y).
b(Z) :- p(Z, W), q(W).
`, Options{})
	c, err := d.Compare(atomOf(t, `a(X)`), nil, atomOf(t, `b(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != RelEquivalent {
		t.Errorf("relation = %v, want equivalent", c.Relation)
	}
	if len(c.LeftOnly) != 0 || len(c.RightOnly) != 0 {
		t.Errorf("differences must be empty: %v / %v", c.LeftOnly, c.RightOnly)
	}
}

func TestCompareOverlapping(t *testing.T) {
	d := newDescriber(t, compareIDB, Options{})
	c, err := d.Compare(atomOf(t, `sporty(X)`), nil, atomOf(t, `varsity(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	// varsity ⊑ sporty (athlete shared, letter extra).
	if c.Relation != RelLeftSubsumesRight {
		t.Errorf("relation = %v", c.Relation)
	}
	if !strings.Contains(c.RightOnly.String(), "letter") {
		t.Errorf("rightOnly = %q", c.RightOnly.String())
	}
}

func TestCompareUnrelated(t *testing.T) {
	d := newDescriber(t, compareIDB, Options{})
	c, err := d.Compare(atomOf(t, `honor(X)`), nil, atomOf(t, `sporty(X)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != RelUnrelated {
		t.Errorf("relation = %v, want unrelated", c.Relation)
	}
	if len(c.Shared) != 0 {
		t.Errorf("shared = %v, want empty", c.Shared)
	}
	if c.String() == "" {
		t.Error("String must render")
	}
}

func TestCompareWithHypotheses(t *testing.T) {
	d := newDescriber(t, compareIDB, Options{})
	// Under the hypothesis that the student is on the dean's list, honor
	// adds nothing: the concepts become equivalent… honor's definition
	// under `deans_list(X)`'s expansion still requires student; compare
	// the raw definitions restricted by hypotheses instead.
	c, err := d.Compare(
		atomOf(t, `honor(X)`), formula(t, `student(X, math, G)`),
		atomOf(t, `deans_list(X)`), formula(t, `student(X, math, G)`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != RelLeftSubsumesRight {
		t.Errorf("relation = %v", c.Relation)
	}
}

func TestCompareArityMismatch(t *testing.T) {
	d := newDescriber(t, compareIDB+"\nrel(X, Y) :- p(X, Y).\n", Options{})
	if _, err := d.Compare(atomOf(t, `honor(X)`), nil, atomOf(t, `rel(X, Y)`), nil); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// --- unfolding machinery ---

func TestUnfoldBoundsRecursion(t *testing.T) {
	d := newDescriber(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`, Options{})
	lim := defaultUnfoldLimits()
	lim.maxExpansions = 5
	defs, _, err := d.unfold(formula(t, `path(X, Y)`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 {
		t.Fatal("expected some expansions")
	}
	for _, def := range defs {
		for _, a := range def {
			if a.Pred != "edge" {
				t.Errorf("non-EDB atom %v in unfolding", a)
			}
		}
	}
	// Expansion count grows with the bound but stays finite.
	lim.maxExpansions = 7
	more, _, err := d.unfold(formula(t, `path(X, Y)`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) <= len(defs) {
		t.Errorf("larger bound must yield more expansions: %d vs %d", len(more), len(defs))
	}
}

func TestChaseKeysUnifiesAndDetectsClash(t *testing.T) {
	d := newDescriberWithKeys(t, universityIDB, keysStudent())
	// Same key → remaining columns unified.
	f := formula(t, `student(ann, M1, G1) and student(ann, M2, G2)`)
	chased, ok := d.chaseKeys(f)
	if !ok {
		t.Fatal("chase must succeed")
	}
	if chased[0].Args[2] != chased[1].Args[2] {
		t.Errorf("GPA columns not unified: %v", chased)
	}
	// Distinct constants in a dependent column → clash.
	f = formula(t, `student(ann, math, 3) and student(ann, math, 4)`)
	if _, ok := d.chaseKeys(f); ok {
		t.Error("key clash must be detected")
	}
	// Different keys don't interact.
	f = formula(t, `student(ann, math, 3) and student(bob, math, 4)`)
	if _, ok := d.chaseKeys(f); !ok {
		t.Error("distinct keys must not clash")
	}
}

func BenchmarkPossible(b *testing.B) {
	d := newDescriberWithKeys(b, universityIDB, keysStudent())
	h := formula(b, `student(X, Y, Z) and Z < 3.5 and can_ta(X, U)`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Possible(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	d := newDescriber(b, compareIDB, Options{})
	l, r := atomOf(b, `honor(X)`), atomOf(b, `deans_list(X)`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Compare(l, nil, r, nil); err != nil {
			b.Fatal(err)
		}
	}
}
