package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// The paper's example IDB (§2.2).
const universityIDB = `
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

func newDescriber(t testing.TB, src string, opts Options) *Describer {
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
	d, err := New(rules, nil, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func describe(t testing.TB, d *Describer, q string) *Answers {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatalf("parse query %q: %v", q, err)
	}
	dq, ok := pq.(*parser.Describe)
	if !ok {
		t.Fatalf("not a describe: %T", pq)
	}
	ans, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{})
	if err != nil {
		t.Fatalf("describe %q: %v", q, err)
	}
	return ans
}

func assertAnswers(t *testing.T, got *Answers, want []string) {
	t.Helper()
	gs := got.SortedStrings()
	if !reflect.DeepEqual(gs, want) {
		t.Errorf("answers:\n got: %q\nwant: %q", gs, want)
	}
}

// --- Paper Example 4 (§3.2): describe honor(X). ---
func TestExample4DescribeHonor(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe honor(X).`)
	assertAnswers(t, ans, []string{
		"honor(X) <- student(X, Y, Z) and Z > 3.7",
	})
	if ans.Contradiction {
		t.Error("no contradiction expected")
	}
}

// --- Paper Example 3 (§3.2): when is a math student with GPA > 3.7
// eligible for TA-ship in databases? ---
func TestExample3DescribeCanTA(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`)
	// Two theorems (paper): completed under the current professor with
	// grade > 3.3, or completed with 4.0. The honor subtree is consumed by
	// the hypothesis; the GPA comparison is removed because V > 3.7 (the
	// hypothesis) implies it.
	assertAnswers(t, ans, []string{
		"can_ta(X, databases) <- complete(X, databases, Z, 4)",
		"can_ta(X, databases) <- complete(X, databases, Z, U) and U > 3.3 and taught(V1, databases, Z, W) and teach(V1, databases)",
	})
	// Both answers used both hypothesis conjuncts (student by
	// identification, V > 3.7 by implication).
	for _, a := range ans.Formulas {
		if len(a.UsedHypothesis) != 2 {
			t.Errorf("answer %v used %v, want both conjuncts", a, a.UsedHypothesis)
		}
	}
}

// --- Paper Example 5 (§4): honor student, Susan teaching. ---
func TestExample5DescribeCanTASusan(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe can_ta(X, Y) where honor(X) and teach(susan, Y).`)
	assertAnswers(t, ans, []string{
		"can_ta(X, Y) <- complete(X, Y, Z, 4)",
		"can_ta(X, Y) <- complete(X, Y, Z, U) and U > 3.3 and taught(susan, Y, Z, W)",
	})
}

// --- Paper §3.2 text: the third English example — when are students who
// completed a course with 4.0 eligible for TA-ship in it? Answer: when
// they are honor students. ---
func TestDescribeCompletedWithFour(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe can_ta(X, Y) where complete(X, Y, Z, 4).`)
	got := ans.SortedStrings()
	// Rule 2 collapses to honor(X); rule 1's completion with U=4 > 3.3
	// also surfaces, with the taught/teach residue.
	found := false
	for _, s := range got {
		if s == "can_ta(X, Y) <- honor(X)" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected `can_ta(X, Y) <- honor(X)` among %q", got)
	}
}

// --- Paper Example 6 (§5): recursive subject, finite answer. ---
func TestExample6DescribePriorRecursive(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe prior(X, Y) where prior(databases, Y).`)
	// The paper's preferred (modified-transformation) rendering:
	//   prior(X, Y) <- X = databases
	//   prior(X, Y) <- prior(X, databases)
	assertAnswers(t, ans, []string{
		"prior(X, Y) <- X = databases",
		"prior(X, Y) <- prior(X, databases)",
	})
}

// The same query with KeepSteps shows the artificial step predicate.
func TestExample6StepPredicateForm(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{KeepSteps: true})
	ans := describe(t, d, `describe prior(X, Y) where prior(databases, Y).`)
	assertAnswers(t, ans, []string{
		"prior(X, Y) <- X = databases",
		"prior(X, Y) <- prior_step(databases, X)",
	})
}

// --- Paper Example 7 (§5): type conflicts must not produce the unsound
// "loop" answers. ---
func TestExample7TypedSubstitutions(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe prior(X, Y) where prior(X, databases).`)
	// Only the sound binding answer survives; every prereq-loop formula
	// the untyped Algorithm 1 would emit is rejected by the typing guard.
	assertAnswers(t, ans, []string{
		"prior(X, Y) <- Y = databases",
	})
	for _, a := range ans.Formulas {
		if strings.Contains(a.String(), "prereq") {
			t.Errorf("unsound loop answer leaked: %v", a)
		}
	}
}

// --- Paper Example 8 (§5): subject depending on a recursive predicate;
// the naive algorithm hangs, Algorithm 2 terminates. ---
func TestExample8Terminates(t *testing.T) {
	d := newDescriber(t, `
p(X, Y) :- q(X, Z), r(Z, Y).
q(X, Y) :- q(X, Z), s(Z, Y).
q(X, Y) :- r(X, Y).
`, Options{})
	ans := describe(t, d, `describe p(X, Y) where r(a, Y).`)
	if ans.Empty() {
		t.Fatal("expected answers")
	}
	// The most general productive answer: the r conjunct of p's rule is
	// identified, leaving q.
	found := false
	for _, s := range ans.SortedStrings() {
		if s == "p(X, Y) <- q(X, a)" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected `p(X, Y) <- q(X, a)` among %q", ans.SortedStrings())
	}
}

// --- §6 remark: a hypothesis that cannot participate leaves the answer
// identical to the hypothesis-free one. ---
func TestIrrelevantHypothesisIgnored(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	with := describe(t, d, `describe honor(X) where enroll(X, databases).`)
	without := describe(t, d, `describe honor(X).`)
	if !reflect.DeepEqual(with.SortedStrings(), without.SortedStrings()) {
		t.Errorf("answers differ:\nwith:    %q\nwithout: %q",
			with.SortedStrings(), without.SortedStrings())
	}
	// And the unused conjunct is reported unused (enabling `necessary`).
	for _, a := range with.Formulas {
		if len(a.UsedHypothesis) != 0 {
			t.Errorf("hypothesis should be unused, got %v", a.UsedHypothesis)
		}
	}
}

// --- §4: contradiction discard and the special answer. ---
func TestHypothesisContradiction(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	// A student with GPA below 3.5 can never satisfy honor's Z > 3.7.
	ans := describe(t, d, `describe honor(X) where student(X, math, V) and V < 3.5.`)
	if !ans.Contradiction {
		t.Fatalf("expected the contradiction answer, got %q", ans.SortedStrings())
	}
	if len(ans.Formulas) != 0 {
		t.Errorf("contradiction answer must carry no formulas, got %q", ans.SortedStrings())
	}
	if !strings.Contains(ans.String(), "contradicts") {
		t.Errorf("String = %q", ans.String())
	}
}

func TestComparisonRemovalExactBoundary(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	// V > 3.7 implies Z > 3.7 exactly (identical bound).
	ans := describe(t, d, `describe honor(X) where student(X, M, V) and V > 3.7.`)
	assertAnswers(t, ans, []string{"honor(X) <- true"})
	// V > 3.5 does NOT imply Z > 3.7: the comparison stays.
	ans = describe(t, d, `describe honor(X) where student(X, M, V) and V > 3.5.`)
	assertAnswers(t, ans, []string{"honor(X) <- V > 3.7"})
	if ans.Contradiction {
		t.Error("3.5 hypothesis is consistent with 3.7 requirement")
	}
}

func TestDescribeGroundSubject(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe can_ta(ann, databases) where honor(ann).`)
	got := ans.SortedStrings()
	if len(got) != 2 {
		t.Fatalf("answers = %q, want 2", got)
	}
	for _, s := range got {
		if !strings.HasPrefix(s, "can_ta(ann, databases) <- complete(ann, databases,") {
			t.Errorf("unexpected answer %q", s)
		}
	}
}

func TestDescribeSubjectMustBeIDB(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	if _, err := d.DescribeContext(context.Background(), term.NewAtom("student", term.Var("X"), term.Var("Y"), term.Var("Z")), nil, governor.Limits{}); err == nil {
		t.Error("EDB subject must be rejected")
	}
	if _, err := d.DescribeContext(context.Background(), term.NewAtom(">", term.Var("X"), term.Num(1)), nil, governor.Limits{}); err == nil {
		t.Error("comparison subject must be rejected")
	}
	if _, err := d.DescribeContext(context.Background(), term.NewAtom("ghost", term.Var("X")), nil, governor.Limits{}); err == nil {
		t.Error("unknown subject must be rejected")
	}
}

// Multi-level identification: the hypothesis names a concept two levels
// below the subject.
func TestDeepIdentification(t *testing.T) {
	d := newDescriber(t, `
a(X) :- b(X), d(X).
b(X) :- c(X), e(X).
`, Options{})
	ans := describe(t, d, `describe a(X) where c(X).`)
	assertAnswers(t, ans, []string{
		"a(X) <- e(X) and d(X)",
	})
}

// The hypothesis may mention the same predicate twice.
func TestRepeatedHypothesisConjunct(t *testing.T) {
	d := newDescriber(t, `
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
`, Options{})
	ans := describe(t, d, `describe grandparent(X, Z) where parent(X, Y) and parent(Y, Z).`)
	assertAnswers(t, ans, []string{"grandparent(X, Z) <- true"})
	// With a single conjunct, one parent step remains.
	ans = describe(t, d, `describe grandparent(X, Z) where parent(X, Y).`)
	assertAnswers(t, ans, []string{"grandparent(X, Z) <- parent(Y, Z)"})
}

// §5.3 end: untyped recursive rules (symmetry) under bounded application.
func TestUntypedBoundedSymmetry(t *testing.T) {
	d := newDescriber(t, `
reach(X, Y) :- flight(X, Y).
reach(X, Y) :- reach(Y, X).
`, Options{})
	// "When Y is reachable from X, is X reachable from Y?" — describe
	// reach(X, Y) given reach(Y, X): the symmetry rule answers directly.
	ans := describe(t, d, `describe reach(X, Y) where reach(Y, X).`)
	found := false
	for _, s := range ans.SortedStrings() {
		if s == "reach(X, Y) <- true" {
			found = true
		}
	}
	if !found {
		t.Errorf("symmetry should derive the subject from the hypothesis alone: %q", ans.SortedStrings())
	}
}

// Bounded application terminates even though the rule is untyped and
// would loop forever unbounded.
func TestUntypedBoundTerminates(t *testing.T) {
	d := newDescriber(t, `
reach(X, Y) :- flight(X, Y).
reach(X, Y) :- reach(Y, X).
`, Options{UntypedBound: 3, MaxDepth: 10})
	ans := describe(t, d, `describe reach(X, Y) where flight(Y, X).`)
	found := false
	for _, s := range ans.SortedStrings() {
		if s == "reach(X, Y) <- true" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected reach(X,Y) <- true via one symmetry step: %q", ans.SortedStrings())
	}
}

// Redundancy: an answer subsumed by a more general one is dropped.
func TestRedundancyElimination(t *testing.T) {
	d := newDescriber(t, `
goal(X) :- big(X).
goal(X) :- big(X), extra(X).
`, Options{})
	ans := describe(t, d, `describe goal(X).`)
	assertAnswers(t, ans, []string{"goal(X) <- big(X)"})
}

func TestAnswerAccessors(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	ans := describe(t, d, `describe honor(X).`)
	if len(ans.Formulas) != 1 {
		t.Fatal("want one formula")
	}
	a := ans.Formulas[0]
	r := a.Rule()
	if r.Head.Pred != "honor" || len(r.Body) != 2 {
		t.Errorf("Rule() = %v", r)
	}
	if len(a.ViaRules) != 1 {
		t.Errorf("ViaRules = %v", a.ViaRules)
	}
	empty := &Answers{}
	if !empty.Empty() || empty.String() != "no answer" {
		t.Error("empty answers misrender")
	}
}

func TestMaxAnswersTruncation(t *testing.T) {
	// A predicate with many rules; MaxAnswers=2 keeps the search bounded.
	d := newDescriber(t, `
p(X) :- a(X).
p(X) :- b(X).
p(X) :- c(X).
p(X) :- d(X).
`, Options{MaxAnswers: 2})
	ans := describe(t, d, `describe p(X).`)
	if len(ans.Formulas) > 4 {
		t.Errorf("answers = %d", len(ans.Formulas))
	}
}

func BenchmarkDescribeNonRecursive(b *testing.B) {
	d := newDescriber(b, universityIDB, Options{})
	pq, _ := parser.ParseQuery(`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`)
	dq := pq.(*parser.Describe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescribeRecursive(b *testing.B) {
	d := newDescriber(b, universityIDB, Options{})
	pq, _ := parser.ParseQuery(`describe prior(X, Y) where prior(databases, Y).`)
	dq := pq.(*parser.Describe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSearchNodeAccounting(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	small := describe(t, d, `describe honor(X) where student(X, math, V) and V > 3.7.`)
	large := describe(t, d, `describe prior(X, Y) where prior(databases, Y).`)
	if small.Nodes <= 0 || large.Nodes <= 0 {
		t.Fatalf("node counts must be positive: %d, %d", small.Nodes, large.Nodes)
	}
	if large.Nodes <= small.Nodes {
		t.Errorf("the recursive search should cost more nodes: %d vs %d", large.Nodes, small.Nodes)
	}
	if small.Truncated || large.Truncated {
		t.Error("neither query should truncate")
	}
}

// The tag discipline is what keeps the recursive search finite; widening
// MaxDepth must NOT change the answer set (tags, not depth, bound it).
func TestTagsBoundRecursionNotDepth(t *testing.T) {
	shallow := newDescriber(t, universityIDB, Options{MaxDepth: 6})
	deep := newDescriber(t, universityIDB, Options{MaxDepth: 64})
	q := `describe prior(X, Y) where prior(databases, Y).`
	a := describe(t, shallow, q).SortedStrings()
	b := describe(t, deep, q).SortedStrings()
	if len(a) != len(b) {
		t.Fatalf("depth changed the recursive answer set: %q vs %q", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("answer %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// Example 5's second answer uses both hypothesis conjuncts; which of them
// is reported first must not depend on the run.
func TestUsedHypothesisDeterministic(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	const q = `describe can_ta(X, Y) where honor(X) and teach(susan, Y).`
	want := [][]int{{0, 1}, {0}}
	for run := 0; run < 50; run++ {
		ans := describe(t, d, q)
		got := make([][]int, len(ans.Formulas))
		for i, a := range ans.Formulas {
			got[i] = a.UsedHypothesis
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: used hypothesis conjuncts %v, want %v", run, got, want)
		}
	}
}

// A Describer is shared by every statement of a knowledge base: the rule
// tables — one for both algorithms when the transformation changed
// nothing — and the dependency graph are read by all searches at once.
func TestDescribeConcurrent(t *testing.T) {
	for _, kb := range []struct {
		name, program string
		stmts         []string
	}{
		{"a table per algorithm", universityIDB, []string{
			`describe honor(X).`,
			`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			`describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
			`describe can_ta(X, Y) where complete(X, Y, Z, 4).`,
			`describe prior(X, Y) where prior(databases, Y).`,
			`describe prior(X, Y) where prior(X, databases).`,
			`describe honor(X) where student(X, M, V) and V > 3.5.`,
			`describe prior(X, Y).`,
		}},
		{"one table for both", "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- reach(Y, X).\nnear(X, Y) :- reach(X, Y), close(X, Y).\n", []string{
			`describe reach(X, Y) where link(Y, X).`,
			`describe reach(X, Y) where reach(Y, X).`,
			`describe near(X, Y) where link(X, Y).`,
			`describe near(X, Y) where close(X, Y).`,
			`describe reach(X, Y).`,
			`describe near(X, Y).`,
			`describe near(X, Y) where reach(X, Y).`,
			`describe near(a, Y) where link(a, Y).`,
		}},
	} {
		t.Run(kb.name, func(t *testing.T) {
			d := newDescriber(t, kb.program, Options{})
			if shared := sharesTable(d); shared != (kb.name == "one table for both") {
				t.Fatalf("tables shared: %v", shared)
			}
			want := make([]string, len(kb.stmts))
			for i, q := range kb.stmts {
				want[i] = describe(t, d, q).String()
			}
			var wg sync.WaitGroup
			for g := range kb.stmts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						i := (g + round) % len(kb.stmts)
						pq, err := parser.ParseQuery(kb.stmts[i])
						if err != nil {
							t.Error(err)
							return
						}
						dq := pq.(*parser.Describe)
						ans, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{})
						if err != nil {
							t.Error(err)
							return
						}
						if got := ans.String(); got != want[i] {
							t.Errorf("%s\nconcurrently:\n%s\nalone:\n%s", kb.stmts[i], got, want[i])
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// The allocation claims of the trail, of prepared subsumption, and of
// keying an answer before building it.
func TestDescribeAllocs(t *testing.T) {
	// A failed identification attempt at a choice point: three arguments
	// bind, the fourth clashes, the trail takes the three back.
	var b bindings
	goal, hyp := atomOf(t, `complete(X, Y, Z, 4)`), atomOf(t, `complete(A, B, C, 3)`)
	if b.unify(goal, hyp) {
		t.Fatal("4 unified with 3")
	}
	if n := testing.AllocsPerRun(200, func() {
		mark := b.mark()
		b.unify(goal, hyp)
		b.undo(mark)
	}); n != 0 || b.bound() != 0 {
		t.Errorf("a failed unification allocates %v times and leaves %d bindings, want 0 and 0", n, b.bound())
	}

	// A pair the predicate pre-check rejects never reaches the matcher.
	m := newMatcher([]term.Term{term.Var("X")})
	general, specific := m.prepare(formula(t, `p(X, A) and q(A)`)), m.prepare(formula(t, `p(X, B) and r(B)`))
	if n := testing.AllocsPerRun(200, func() {
		if ok, _ := m.subsumes(&general, &specific); ok {
			t.Fatal("q(A) matched nothing yet the pair subsumed")
		}
	}); n != 0 {
		t.Errorf("a pair rejected by the pre-check allocates %v times, want 0", n)
	}
	// Preparing a conjunction carves its four parts from one formula and
	// renames it apart into one term array.
	answer := formula(t, `p(X, A) and A > 3 and q(A, B) and B < X`)
	if n := testing.AllocsPerRun(200, func() { m.prepare(answer) }); n != 2 {
		t.Errorf("preparing %v allocates %v times, want 2", answer, n)
	}

	// An answer whose key the search has seen allocates nothing: Example
	// 5's second answer, can_ta(X, Y) ← complete(X, Y, Z, 4), with honor(X)
	// identified. (term's TestRenameRuleAllocs holds the rename's cost.)
	d := newDescriber(t, universityIDB, Options{})
	s := d.newSearch(nil, atomOf(t, `can_ta(X, Y)`), formula(t, `honor(X) and teach(susan, Y)`))
	fresh := s.rn.RenameRule(d.Rules()[4])
	if !s.b.unify(s.subject, fresh.Head) || !s.b.unify(fresh.Body[0], s.hypOrd[0].atom) {
		t.Fatal("the rule does not meet the subject and the hypothesis")
	}
	s.leaves, s.usedHyp[0] = fresh.Body[1:], true
	if err := s.emit(); err != nil || len(s.answers) != 1 {
		t.Fatalf("emit: %v, %d answers", err, len(s.answers))
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.emit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || len(s.answers) != 1 {
		t.Errorf("emitting %v again allocates %v times and leaves %d answers, want 0 and 1", s.answers[0], n, len(s.answers))
	}

	// So does one whose comparison α implies: Example 2's U > 3.3 under
	// V > 3.7, dropped by α's network and kept needed by the network of α
	// without V > 3.7, both compiled into the search's own networks.
	s = d.newSearch(nil, atomOf(t, `can_ta(X, Y)`), formula(t, `complete(X, Y, Z, V) and V > 3.7`))
	fresh = s.rn.RenameRule(d.Rules()[3])
	if !s.b.unify(s.subject, fresh.Head) || !s.b.unify(fresh.Body[1], s.hypOrd[0].atom) {
		t.Fatal("the rule does not meet the subject and the hypothesis")
	}
	s.leaves, s.usedHyp[0] = append(fresh.Body[:1:1], fresh.Body[2:]...), true
	if err := s.emit(); err != nil || len(s.answers) != 1 || len(s.answers[0].UsedHypothesis) != 2 {
		t.Fatalf("emit: %v, %v", err, s.answers)
	}
	if got := s.answers[0].String(); strings.Contains(got, "3.3") {
		t.Fatalf("emit kept the implied comparison: %s", got)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.emit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || len(s.answers) != 1 {
		t.Errorf("emitting %v again allocates %v times and leaves %d answers, want 0 and 1", s.answers[0], n, len(s.answers))
	}

	// One expansion after warm-up: the variant, its children, the agenda
	// and the obligations come off the search's stacks, the renamed
	// variables are numbers in the frame, and both answers below it are
	// already known.
	d = newDescriber(t, "goal(X) :- target(X), extra(X).\n", Options{})
	s = d.newSearch(nil, atomOf(t, `goal(X)`), formula(t, `target(X)`))
	agenda := []node{{atom: s.subject}}
	if err := s.step(agenda); err != nil || len(s.answers) != 2 {
		t.Fatalf("warm-up: %v, %d answers", err, len(s.answers))
	}
	nodes := s.nodes
	if n := testing.AllocsPerRun(200, func() {
		if err := s.step(agenda); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || len(s.answers) != 2 || s.nodes == nodes {
		t.Errorf("an expansion allocates %v times and leaves %d answers, want 0 and 2", n, len(s.answers))
	}

	// End to end. Each ceiling is halfway between what the search took
	// when the solver built a network of maps and rows per question (the
	// first) and what it takes on the flat network, α compiled into the
	// search's own networks and each prepared conjunction's comparisons
	// compiled once (the second): 51 and 31, 237 and 236, 66 and 27 for
	// Example 6 under Algorithm 2, 437 and 88 for a compare. Before the
	// frame and the stacks they were 151, 477, 300 and 447; the trail
	// search before took 215 and 1511, the clone-per-choice search with
	// pairwise subsumption 249 and 9451. Under the race detector the pool
	// drops searches at random, so a statement may start cold: there the
	// ceilings are the ones that held before the flat network.
	var fanout strings.Builder
	for w := 0; w < 32; w++ {
		fmt.Fprintf(&fanout, "goal(X) :- target(X), extra%d_0(X), extra%d_1(X), extra%d_2(X).\n", w, w, w)
	}
	for _, c := range []struct {
		program, stmt        string
		ceiling, raceCeiling float64
	}{
		{universityIDB, `describe can_ta(X, Y) where honor(X) and teach(susan, Y).`, 41, 101},
		{fanout.String(), `describe goal(X) where target(X).`, 236.5, 357},
		{universityIDB, `describe prior(X, Y) where prior(databases, Y).`, 46, 183},
		{compareIDB, `compare (describe honor(X)) with (describe deans_list(X)).`, 262, 442},
	} {
		if raceEnabled {
			c.ceiling = c.raceCeiling
		}
		d := newDescriber(t, c.program, Options{})
		pq, err := parser.ParseQuery(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		var run func() error
		switch q := pq.(type) {
		case *parser.Describe:
			run = func() error {
				_, err := d.DescribeContext(context.Background(), q.Subject, q.Where, governor.Limits{})
				return err
			}
		case *parser.Compare:
			run = func() error {
				_, err := d.Compare(q.Left.Subject, q.Left.Where, q.Right.Subject, q.Right.Where)
				return err
			}
		}
		n := testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s allocates %v times", c.stmt, n)
		if n > c.ceiling {
			t.Errorf("%s allocates %v times, ceiling %v", c.stmt, n, c.ceiling)
		}
	}
}

// bound counts the frame's bound variables.
func (b *bindings) bound() int {
	n := 0
	for _, vals := range [][]term.Term{b.slots, b.pattern} {
		for _, v := range vals {
			if v != (term.Term{}) {
				n++
			}
		}
	}
	for _, w := range b.written {
		if w.val != (term.Term{}) {
			n++
		}
	}
	return n
}
