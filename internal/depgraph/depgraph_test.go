package depgraph

import (
	"testing"

	"kdb/internal/parser"
	"kdb/internal/term"
)

func rules(t *testing.T, src string) []term.Rule {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.Clauses
}

// The paper's example IDB (§2.2).
const universityIDB = `
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

func TestDirectAndTransitiveDependency(t *testing.T) {
	g := New(rules(t, universityIDB))
	if !g.DirectlyDependsOn("honor", "student") {
		t.Error("honor directly depends on student")
	}
	if g.DirectlyDependsOn("honor", ">") {
		t.Error("comparisons are not dependency targets")
	}
	if !g.DirectlyDependsOn("can_ta", "honor") {
		t.Error("can_ta directly depends on honor")
	}
	if g.DirectlyDependsOn("can_ta", "student") {
		t.Error("can_ta does not DIRECTLY depend on student")
	}
	if !g.DependsOn("can_ta", "student") {
		t.Error("can_ta transitively depends on student")
	}
	if g.DependsOn("student", "can_ta") {
		t.Error("EDB predicates depend on nothing")
	}
	if !g.DependsOn("prior", "prior") {
		t.Error("a recursive predicate depends on itself")
	}
	if g.DependsOn("honor", "honor") {
		t.Error("honor is not recursive")
	}
}

func TestRecursionClassification(t *testing.T) {
	rs := rules(t, universityIDB)
	g := New(rs)
	if !g.IsRecursivePred("prior") {
		t.Error("prior is recursive")
	}
	for _, p := range []string{"honor", "can_ta", "student", "prereq"} {
		if g.IsRecursivePred(p) {
			t.Errorf("%s must not be recursive", p)
		}
	}
	// prior's second rule is recursive, strongly linear, typed.
	var rec term.Rule
	for _, r := range rs {
		if r.Head.Pred == "prior" && len(r.Body) == 2 {
			rec = r
		}
	}
	if !g.IsRecursiveRule(rec) || !g.IsLinear(rec) || !g.IsStronglyLinear(rec) {
		t.Errorf("prior recursive rule misclassified: rec=%v lin=%v strong=%v",
			g.IsRecursiveRule(rec), g.IsLinear(rec), g.IsStronglyLinear(rec))
	}
	if !TypedWRT(rec, "prior") {
		t.Error("prior rule is typed with respect to prior")
	}
	// The base rule is not recursive.
	base := rs[1]
	if g.IsRecursiveRule(base) || g.IsStronglyLinear(base) {
		t.Error("base rule misclassified as recursive")
	}
}

func TestDependsOnRecursive(t *testing.T) {
	g := New(rules(t, universityIDB+`
needs_path(X) :- prior(X, databases).
`))
	if !g.DependsOnRecursive("prior") {
		t.Error("prior depends on recursive (itself)")
	}
	if !g.DependsOnRecursive("needs_path") {
		t.Error("needs_path depends on recursive prior")
	}
	for _, p := range []string{"honor", "can_ta"} {
		if g.DependsOnRecursive(p) {
			t.Errorf("%s must not depend on a recursive predicate", p)
		}
	}
}

func TestMutualRecursion(t *testing.T) {
	g := New(rules(t, `
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
`))
	if !g.MutuallyDependent("even", "odd") {
		t.Error("even and odd are mutually dependent")
	}
	if !g.IsRecursivePred("even") || !g.IsRecursivePred("odd") {
		t.Error("both even and odd are recursive")
	}
	// Mutual-recursion rules are linear but not strongly linear.
	for _, r := range g.RulesFor("even") {
		if len(r.Body) != 2 {
			continue
		}
		if !g.IsLinear(r) {
			t.Errorf("%v should be linear", r)
		}
		if g.IsStronglyLinear(r) {
			t.Errorf("%v should not be strongly linear", r)
		}
	}
	scc := g.SCC("even")
	if len(scc) != 2 || scc[0] != "even" || scc[1] != "odd" {
		t.Errorf("SCC(even) = %v", scc)
	}
}

func TestNonLinearRule(t *testing.T) {
	g := New(rules(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`))
	var dbl term.Rule
	for _, r := range g.RulesFor("anc") {
		if len(r.Body) == 2 {
			dbl = r
		}
	}
	if !g.IsRecursiveRule(dbl) {
		t.Error("doubling rule is recursive")
	}
	if g.IsLinear(dbl) || g.IsStronglyLinear(dbl) {
		t.Error("doubling rule is neither linear nor strongly linear")
	}
}

func TestTypedWRT(t *testing.T) {
	rs := rules(t, `
p(X, Y) :- p(X, Z), q(Z, Y).
r(X, Y) :- r(Y, X).
s(X) :- t(X, X).
u(X, Y) :- u(X, Z), u(Z, Y).
`)
	if !TypedWRT(rs[0], "p") {
		t.Error("rule 0 is typed wrt p: X and Z keep their positions")
	}
	if TypedWRT(rs[1], "r") {
		t.Error("symmetry rule is NOT typed wrt r (paper example)")
	}
	if !TypedWRT(rs[2], "s") {
		t.Error("rule 2 is trivially typed wrt s")
	}
	if TypedWRT(rs[2], "t") {
		t.Error("t(X, X) is not typed wrt t (paper example)")
	}
	if TypedWRT(rs[3], "u") {
		t.Error("u(X,Y) :- u(X,Z), u(Z,Y) is not typed wrt u: Z occurs at positions 2 and 1")
	}
	// Constants do not affect typedness.
	rs2 := rules(t, `p(X, Y) :- p(X, a), q(Y).`)
	if !TypedWRT(rs2[0], "p") {
		t.Error("constants are exempt from the typing requirement")
	}
}

func TestSCCOrder(t *testing.T) {
	g := New(rules(t, universityIDB))
	order := g.SCCOrder()
	pos := make(map[string]int)
	for i, comp := range order {
		for _, p := range comp {
			pos[p] = i
			if j := g.SCCIndex(p); j != i {
				t.Errorf("SCCIndex(%s) = %d, want %d", p, j, i)
			}
		}
	}
	// Dependencies must come before dependents.
	if !(pos["student"] < pos["honor"] && pos["honor"] < pos["can_ta"]) {
		t.Errorf("SCC order wrong: %v", order)
	}
	if !(pos["prereq"] < pos["prior"]) {
		t.Errorf("SCC order wrong: %v", order)
	}
}

func TestCheckDiscipline(t *testing.T) {
	// The paper's example database obeys the discipline.
	g := New(rules(t, universityIDB))
	if v := g.CheckDiscipline(); len(v) != 0 {
		t.Errorf("university IDB must be clean, got %v", v)
	}
	// A symmetry rule violates typedness.
	g2 := New(rules(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
reach(X, Y) :- reach(Y, X).
`))
	vs := g2.CheckDiscipline()
	found := false
	for _, v := range vs {
		if v.Reason == "recursive rule is not typed with respect to its head predicate" {
			found = true
			if v.String() == "" {
				t.Error("violation must render")
			}
		}
	}
	if !found {
		t.Errorf("symmetry rule must violate typedness, got %v", vs)
	}
	// A doubling rule violates strong linearity.
	g3 := New(rules(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`))
	vs3 := g3.CheckDiscipline()
	if len(vs3) == 0 {
		t.Error("doubling rule must violate strong linearity")
	}
}

func TestMakeStronglyLinearPassThrough(t *testing.T) {
	rs := rules(t, universityIDB)
	g := New(rs)
	lin, err := MakeStronglyLinear(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lin != g {
		t.Error("a rule set needing no rewrite got a second graph")
	}
	out := lin.Rules()
	if len(out) != len(rs) {
		t.Fatalf("rule count changed: %d → %d", len(rs), len(out))
	}
	for i := range rs {
		if !out[i].Equal(rs[i]) {
			t.Errorf("rule %d changed: %v → %v", i, rs[i], out[i])
		}
	}
}

func TestMakeStronglyLinearMutualRecursion(t *testing.T) {
	rs := rules(t, `
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
`)
	g, err := MakeStronglyLinear(New(rs), 8)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Rules()
	for _, r := range out {
		if g.IsRecursiveRule(r) && !g.IsStronglyLinear(r) {
			t.Errorf("rule %v is recursive but not strongly linear after rewrite", r)
		}
	}
	// even must now have a direct recursive rule through two succ steps.
	foundDirect := false
	for _, r := range g.RulesFor("even") {
		for _, a := range r.Body {
			if a.Pred == "even" {
				foundDirect = true
			}
		}
	}
	if !foundDirect {
		t.Errorf("expected a direct even-recursion after unfolding, got %v", out)
	}
}

func TestMakeStronglyLinearNonLinearFails(t *testing.T) {
	rs := rules(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
`)
	if _, err := MakeStronglyLinear(New(rs), 8); err == nil {
		t.Error("non-linear recursion must fail to rewrite")
	}
}

func TestSCCUnknownPredicate(t *testing.T) {
	g := New(nil)
	if scc := g.SCC("ghost"); len(scc) != 1 || scc[0] != "ghost" {
		t.Errorf("SCC(ghost) = %v", scc)
	}
	if i := g.SCCIndex("ghost"); i != -1 {
		t.Errorf("SCCIndex(ghost) = %d, want -1", i)
	}
}

func BenchmarkNewGraph(b *testing.B) {
	rs := func() []term.Rule {
		p, err := parser.ParseProgram(universityIDB)
		if err != nil {
			b.Fatal(err)
		}
		return p.Clauses
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(rs)
	}
}
