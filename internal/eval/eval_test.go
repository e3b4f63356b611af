package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kdb/internal/depgraph"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// load builds an Input from program source: ground bodiless clauses
// become stored facts, everything else becomes rules.
func load(t testing.TB, src string) Input {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	st := storage.NewMemory()
	var rules []term.Rule
	for _, c := range p.Clauses {
		if c.IsFact() {
			if _, err := st.InsertAtom(c.Head); err != nil {
				t.Fatalf("insert %v: %v", c.Head, err)
			}
		} else {
			rules = append(rules, c)
		}
	}
	return Input{Store: st, Rules: rules}
}

func query(t testing.TB, src string) Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	r, ok := q.(*parser.Retrieve)
	if !ok {
		t.Fatalf("not a retrieve: %T", q)
	}
	return Query{Subject: r.Subject, Where: r.Where}
}

func engines(in Input) []Engine {
	return []Engine{
		NewSemiNaive(in),
		NewTopDown(in),
		NewMagic(in),
	}
}

// The paper's example database (§2.2) with a small extension.
const universityDB = `
student(ann, math, 3.9).
student(bob, cs, 3.5).
student(cora, math, 3.8).
student(dan, cs, 4).
professor(susan, cs, "x5-1212").
professor(tom, math, "x5-3434").
course(databases, 4).
course(calculus, 4).
course(datastructures, 3).
course(programming, 3).
enroll(ann, databases).
enroll(bob, databases).
enroll(cora, calculus).
enroll(dan, databases).
teach(susan, databases).
teach(tom, calculus).
prereq(databases, datastructures).
prereq(datastructures, programming).
taught(susan, databases, f89, 3.5).
taught(tom, databases, f88, 3).
complete(ann, databases, f89, 3.6).
complete(cora, databases, f88, 4).
complete(dan, databases, f88, 3.4).

honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

// retrieveAll answers q on the oracle and returns its answers, after
// checking that every engine answers the same.
func retrieveAll(t *testing.T, in Input, q Query) []string {
	t.Helper()
	want, err := oracleRetrieve(in, q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, e := range engines(in) {
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !reflect.DeepEqual(res.Strings(), want.Strings()) {
			t.Fatalf("%s answered %v, the oracle %v", e.Name(), res.Strings(), want.Strings())
		}
	}
	return want.Strings()
}

// TestRetrieveRuleVariableSpelledFresh: the top-down engine renames a
// rule apart before resolving it; a rule variable spelled like a fresh
// name (X_1) must not merge with the variable renamed to that name, or
// p would have no answer. The renamer has numbered other variables
// before it reaches p's rule, so the rule spells several such names and
// one of them is X's image.
func TestRetrieveRuleVariableSpelledFresh(t *testing.T) {
	in := load(t, "q(b).\nr(a).\np(X) :- q(X_1), q(X_2), q(X_3), q(X_4), r(X).\n")
	got := retrieveAll(t, in, query(t, `retrieve p(X).`))
	if want := []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("p = %v, want %v", got, want)
	}
}

func TestRetrieveEDB(t *testing.T) {
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve student(X, math, G).`))
	want := []string{"ann, 3.9", "cora, 3.8"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("math students = %v, want %v", got, want)
	}
}

func TestRetrieveIDBSimple(t *testing.T) {
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve honor(X).`))
	want := []string{"ann", "cora", "dan"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("honor students = %v, want %v", got, want)
	}
}

func TestRetrieveExample1(t *testing.T) {
	// Paper Example 1: honor students enrolled in databases.
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve honor(X) where enroll(X, databases).`))
	want := []string{"ann", "dan"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("= %v, want %v", got, want)
	}
}

func TestRetrieveExample2AdHocSubject(t *testing.T) {
	// Paper Example 2: `answer` is not a known predicate.
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t,
		`retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`))
	// ann: honor, completed databases f89 3.6 > 3.3 under susan who teaches it → can_ta.
	// cora: honor, completed databases with 4.0 → can_ta; both are math.
	want := []string{"ann", "cora"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("= %v, want %v", got, want)
	}
}

func TestRetrieveCanTA(t *testing.T) {
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve can_ta(X, databases).`))
	// dan completed with 3.4 under tom (f88) but tom doesn't teach databases now;
	// 3.4 is not 4.0 either. So ann (rule 1) and cora (rule 2).
	want := []string{"ann", "cora"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("= %v, want %v", got, want)
	}
}

func TestRetrieveRecursive(t *testing.T) {
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve prior(databases, Y).`))
	want := []string{"datastructures", "programming"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prior(databases, Y) = %v, want %v", got, want)
	}
	got = retrieveAll(t, in, query(t, `retrieve prior(X, programming).`))
	want = []string{"databases", "datastructures"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prior(X, programming) = %v, want %v", got, want)
	}
}

func TestRetrieveChainClosure(t *testing.T) {
	var src string
	n := 30
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("edge(n%02d, n%02d).\n", i, i+1)
	}
	src += `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	in := load(t, src)
	got := retrieveAll(t, in, query(t, `retrieve path(n00, Y).`))
	if len(got) != n {
		t.Errorf("reachable from n00 = %d, want %d", len(got), n)
	}
	got = retrieveAll(t, in, query(t, `retrieve path(X, Y).`))
	if len(got) != n*(n+1)/2 {
		t.Errorf("all paths = %d, want %d", len(got), n*(n+1)/2)
	}
}

func TestRetrieveCycleTerminates(t *testing.T) {
	in := load(t, `
edge(a, b). edge(b, c). edge(c, a).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
	got := retrieveAll(t, in, query(t, `retrieve path(a, Y).`))
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cycle closure = %v, want %v", got, want)
	}
}

func TestRetrieveMutualRecursion(t *testing.T) {
	in := load(t, `
zero(n0).
succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
`)
	got := retrieveAll(t, in, query(t, `retrieve even(X).`))
	want := []string{"n0", "n2", "n4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("even = %v, want %v", got, want)
	}
}

func TestRetrieveNonLinearRecursion(t *testing.T) {
	in := load(t, `
par(a, b). par(b, c). par(c, d).
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`)
	got := retrieveAll(t, in, query(t, `retrieve anc(a, Y).`))
	want := []string{"b", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("anc = %v, want %v", got, want)
	}
}

func TestRetrieveEqualityInRuleBody(t *testing.T) {
	in := load(t, `
p(a, 1). p(b, 2).
q(X) :- p(X, Y), Y = 1.
r(X, Z) :- p(X, Y), Z = Y.
`)
	got := retrieveAll(t, in, query(t, `retrieve q(X).`))
	if !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("q = %v", got)
	}
	got = retrieveAll(t, in, query(t, `retrieve r(X, Z).`))
	want := []string{"a, 1", "b, 2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("r = %v, want %v", got, want)
	}
}

func TestRetrieveComparisonsInQualifier(t *testing.T) {
	in := load(t, universityDB)
	got := retrieveAll(t, in, query(t, `retrieve student(X, M, G) where G >= 3.8 and M != cs.`))
	want := []string{"ann, math, 3.9", "cora, math, 3.8"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("= %v, want %v", got, want)
	}
}

func TestRetrieveGroundSubject(t *testing.T) {
	in := load(t, universityDB)
	res := retrieveAll(t, in, query(t, `retrieve honor(ann).`))
	// Ground subject: one empty binding tuple when true.
	if len(res) != 1 {
		t.Errorf("honor(ann) = %v, want one (empty) answer", res)
	}
	res = retrieveAll(t, in, query(t, `retrieve honor(bob).`))
	if len(res) != 0 {
		t.Errorf("honor(bob) = %v, want no answer", res)
	}
}

func TestRetrieveUnknownPredicateEmpty(t *testing.T) {
	in := load(t, universityDB)
	// ghost is unknown and the qualifier references it: empty answer.
	got := retrieveAll(t, in, query(t, `retrieve honor(X) where ghost(X).`))
	if len(got) != 0 {
		t.Errorf("= %v, want empty", got)
	}
}

func TestRetrieveRepeatedVarsInSubject(t *testing.T) {
	in := load(t, `
likes(a, b). likes(b, b). likes(c, c).
`)
	got := retrieveAll(t, in, query(t, `retrieve likes(X, X).`))
	want := []string{"b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("likes(X,X) = %v, want %v", got, want)
	}
}

func TestUnsafeRulesRejected(t *testing.T) {
	cases := []string{
		`p(X) :- q(Y).` + "\nq(a).",         // head var unbound
		`p(X) :- X > 3.` + "\nq(a).",        // comparison var unbound
		`p(X) :- q(Y), X != Y.` + "\nq(a).", // != does not bind
	}
	for _, src := range cases {
		in := load(t, src)
		for _, e := range engines(in) {
			if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve p(X).`)); err == nil {
				t.Errorf("%s accepted unsafe program %q", e.Name(), src)
			}
		}
	}
	// But X = Y with Y bound is safe.
	in := load(t, "q(a).\np(X) :- q(Y), X = Y.")
	got := retrieveAll(t, in, query(t, `retrieve p(X).`))
	if !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("p = %v", got)
	}
}

func TestResultAtomsAndSorted(t *testing.T) {
	in := load(t, universityDB)
	e := NewSemiNaive(in)
	res, err := e.RetrieveContext(context.Background(), query(t, `retrieve honor(X).`))
	if err != nil {
		t.Fatal(err)
	}
	atoms := res.Atoms(term.NewAtom("honor", term.Var("X")))
	if len(atoms) != 3 {
		t.Fatalf("atoms = %v", atoms)
	}
	for _, a := range atoms {
		if a.Pred != "honor" || !a.IsGround() {
			t.Errorf("bad atom %v", a)
		}
	}
}

// --- cross-engine property tests on random graph programs ---

func randomGraphInput(r *rand.Rand, nodes, edges int) Input {
	st := storage.NewMemory()
	for i := 0; i < edges; i++ {
		a := term.Sym(fmt.Sprintf("n%d", r.Intn(nodes)))
		b := term.Sym(fmt.Sprintf("n%d", r.Intn(nodes)))
		if _, err := st.InsertAtom(term.NewAtom("edge", a, b)); err != nil {
			panic(err)
		}
	}
	p, err := parser.ParseProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
twohop(X, Y) :- edge(X, Z), edge(Z, Y).
reach_sym(X, Y) :- path(X, Y).
reach_sym(X, Y) :- path(Y, X).
`)
	if err != nil {
		panic(err)
	}
	return Input{Store: st, Rules: p.Clauses}
}

// TestQuickEnginesAgree: every engine computes the oracle's extension on
// random graphs, for several query shapes.
func TestQuickEnginesAgree(t *testing.T) {
	queries := []string{
		`retrieve path(X, Y).`,
		`retrieve path(n0, Y).`,
		`retrieve path(X, n1).`,
		`retrieve twohop(X, Y).`,
		`retrieve reach_sym(n0, Y).`,
		`retrieve answer(X) where path(n0, X) and path(X, n1).`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomGraphInput(r, 6, 10)
		for _, qs := range queries {
			if d := judge(in, query(t, qs)); d != "" {
				t.Logf("seed %d query %s: %s", seed, qs, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnginesAgreeOnRandomPrograms: randomized safe programs with
// several interdependent predicates evaluate on every engine as on the
// oracle.
func TestQuickEnginesAgreeOnRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		nodes := 4 + r.Intn(4)
		// Two random edge relations.
		for _, rel := range []string{"e1", "e2"} {
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&b, "%s(n%d, n%d).\n", rel, r.Intn(nodes), r.Intn(nodes))
			}
		}
		// Random safe rules over a fixed predicate vocabulary: every rule
		// template is range-restricted, so any subset forms a safe program.
		templates := []string{
			"p1(X, Y) :- e1(X, Y).",
			"p1(X, Y) :- e1(X, Z), p1(Z, Y).",
			"p2(X, Y) :- e2(X, Y).",
			"p2(X, Y) :- p2(X, Z), e2(Z, Y).",
			"p3(X, Y) :- p1(X, Y), p2(X, Y).",
			"p3(X, Y) :- p1(X, Z), p2(Z, Y).",
			"p4(X) :- p3(X, Y).",
			"p4(X) :- e1(X, X).",
			"p5(X, Y) :- p3(X, Y), p4(X), p4(Y).",
		}
		for _, tpl := range templates {
			if r.Intn(4) > 0 { // keep most templates, drop some at random
				b.WriteString(tpl + "\n")
			}
		}
		// Guarantee the queried predicates exist.
		b.WriteString("q(X, Y) :- p1(X, Y).\nq(X, Y) :- e2(X, Y).\n")
		in := load(t, b.String())
		if d := judge(in, query(t, `retrieve q(X, Y).`)); d != "" {
			t.Logf("seed %d: %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHybridPredicateEngineAgreement: a predicate backed by both stored
// facts and rules yields the same, duplicate-free answer on every engine.
func TestHybridPredicateEngineAgreement(t *testing.T) {
	in := load(t, `
q(a). q(b).
p(a).
p(X) :- q(X).
r(X, Y) :- p(X), p(Y).
`)
	out := retrieveAll(t, in, query(t, `retrieve r(X, Y).`))
	// p's extension is {a, b}; r must be exactly the 4 ordered pairs.
	if len(out) != 4 {
		t.Fatalf("r = %v, want 4 tuples", out)
	}
}

// TestQuickClosureMatchesFloydWarshall: the recursive path predicate
// agrees with an independent reachability computation.
func TestQuickClosureMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		st := storage.NewMemory()
		for k := 0; k < 10; k++ {
			i, j := r.Intn(n), r.Intn(n)
			adj[i][j] = true
			if _, err := st.InsertAtom(term.NewAtom("edge",
				term.Sym(fmt.Sprintf("n%d", i)), term.Sym(fmt.Sprintf("n%d", j)))); err != nil {
				panic(err)
			}
		}
		// Floyd-Warshall closure.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		p, _ := parser.ParseProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
		in := Input{Store: st, Rules: p.Clauses}
		res, err := NewSemiNaive(in).RetrieveContext(context.Background(), query(t, `retrieve path(X, Y).`))
		if err != nil {
			return false
		}
		got := make(map[string]bool)
		for _, tp := range res.Tuples {
			got[tp[0].Name()+","+tp[1].Name()] = true
		}
		want := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					want++
					if !got[fmt.Sprintf("n%d,n%d", i, j)] {
						t.Logf("seed %d: missing n%d→n%d", seed, i, j)
						return false
					}
				}
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- benchmarks: engine comparison on transitive closure (DESIGN B1) ---

func chainInput(b testing.TB, n int) Input {
	st := storage.NewMemory()
	for i := 0; i < n; i++ {
		if _, err := st.InsertAtom(term.NewAtom("edge",
			term.Sym(fmt.Sprintf("n%04d", i)), term.Sym(fmt.Sprintf("n%04d", i+1)))); err != nil {
			b.Fatal(err)
		}
	}
	p, err := parser.ParseProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	return Input{Store: st, Rules: p.Clauses}
}

func benchEngine(b *testing.B, mk func(Input, ...EngineOption) Engine, n int, qs string) {
	in := chainInput(b, n)
	q := query(b, qs)
	e := mk(in)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.RetrieveContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrieveSemiNaiveChain50(b *testing.B) {
	benchEngine(b, NewSemiNaive, 50, `retrieve path(X, Y).`)
}
func BenchmarkRetrieveTopDownChain50(b *testing.B) {
	benchEngine(b, NewTopDown, 50, `retrieve path(X, Y).`)
}

func BenchmarkRetrieveSemiNaiveChain200(b *testing.B) {
	benchEngine(b, NewSemiNaive, 200, `retrieve path(X, Y).`)
}

func BenchmarkRetrieveTopDownBoundGoal(b *testing.B) {
	// Goal-directed evaluation should shine on a bound query.
	benchEngine(b, NewTopDown, 200, `retrieve path(n0000, Y).`)
}

func BenchmarkRetrieveSemiNaiveBoundGoal(b *testing.B) {
	benchEngine(b, NewSemiNaive, 200, `retrieve path(n0000, Y).`)
}

// wideInput builds several independent chain predicates joined by one top
// rule: the SCC condensation has many mutually independent recursive
// components.
func wideInput(tb testing.TB, chains, length int) Input {
	var b strings.Builder
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&b, "edge%d(n%04d, n%04d).\n", c, i, i+1)
		}
		fmt.Fprintf(&b, "path%d(X, Y) :- edge%d(X, Y).\n", c, c)
		fmt.Fprintf(&b, "path%d(X, Y) :- edge%d(X, Z), path%d(Z, Y).\n", c, c, c)
	}
	// A top predicate depending on every chain, so one query reaches all
	// components.
	b.WriteString("top(X, Y) :- path0(X, Y)")
	for c := 1; c < chains; c++ {
		fmt.Fprintf(&b, ", path%d(X, Y)", c)
	}
	b.WriteString(".\n")
	return load(tb, b.String())
}

func benchEngineInput(b *testing.B, e Engine, in Input, qs string) {
	q := query(b, qs)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.RetrieveContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieveSemiNaiveSideways: the statements of the paper's KB
// that call honor with an argument another atom binds, over 3 000
// generated students.
func BenchmarkRetrieveSemiNaiveSideways(b *testing.B) {
	in := universityKB(b, 3000)
	in.Prepared = Prepare(depgraph.New(in.Rules))
	for _, stmt := range []string{
		`retrieve honor(X) where enroll(X, databases).`,
		`retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`,
		`retrieve can_ta(X, databases).`,
	} {
		b.Run(strings.Fields(stmt)[1], func(b *testing.B) { benchEngineInput(b, NewSemiNaive(in), in, stmt) })
	}
}

// BenchmarkRetrieveSemiNaiveDistinct: statements whose answers cannot
// repeat, which keep no query table: the closure of a 100-node chain in
// full, which hands over path's rows, and from its first node, and one of
// 3 000 students by key, whose answers are projected. For an A/B, run it
// at both commits and compare the two with benchstat.
func BenchmarkRetrieveSemiNaiveDistinct(b *testing.B) {
	chain, uni := chainClosure(b, 100), universityKB(b, 3000)
	chain.Prepared, uni.Prepared = Prepare(depgraph.New(chain.Rules)), Prepare(depgraph.New(uni.Rules))
	for _, tc := range []struct {
		name, stmt string
		in         Input
	}{
		{"path(X,Y)", `retrieve path(X, Y).`, chain},
		{"path(c0,Y)", `retrieve path(c0, Y).`, chain},
		{"student(s0042,M,G)", `retrieve student(s0042, M, G).`, uni},
	} {
		b.Run(tc.name, func(b *testing.B) { benchEngineInput(b, NewSemiNaive(tc.in), tc.in, tc.stmt) })
	}
}

func BenchmarkRetrieveSemiNaiveWide(b *testing.B) {
	in := wideInput(b, 8, 30)
	benchEngineInput(b, NewSemiNaive(in), in, `retrieve top(X, Y).`)
}
