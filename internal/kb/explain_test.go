package kb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/term"
)

const universityProgram = `
student(ann, math, 3.9).
student(bob, cs, 3.5).
student(cora, math, 3.8).
student(dan, cs, 4).

enroll(ann, databases).
enroll(bob, databases).

teach(susan, databases).
taught(susan, databases, f89, 3.5).

complete(ann, databases, f89, 3.6).
complete(cora, databases, f88, 4).

prereq(databases, datastructures).
prereq(datastructures, programming).
prereq(ai, datastructures).

honor(X) :- student(X, Y, Z), Z > 3.7.

prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).

can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

const routesProgram = `
flight(la, sf). flight(sf, sea). flight(sea, chi). flight(chi, ny).
flight(ny, la). flight(dal, chi). flight(la, dal).
reachable(X, Y) :- flight(X, Y).
reachable(X, Y) :- flight(X, Z), reachable(Z, Y).
`

// TestExplainTrees pins the exact rendered derivation trees of facts
// with a unique derivation, the recursive prior included. (eval's
// TestExplainTreesPinned pins the same trees on the engine itself.)
func TestExplainTrees(t *testing.T) {
	cases := []struct {
		stmt string
		want string
	}{
		{
			stmt: "explain honor(ann).",
			want: `honor(ann)  [r1]
  student(ann, math, 3.9)  [edb]
  3.9 > 3.7  [builtin]

rules:
  r1: honor(X) :- student(X, Y, Z), Z > 3.7.
`,
		},
		{
			stmt: "explain can_ta(ann, databases).",
			want: `can_ta(ann, databases)  [r1]
  honor(ann)  [r2]
    student(ann, math, 3.9)  [edb]
    3.9 > 3.7  [builtin]
  complete(ann, databases, f89, 3.6)  [edb]
  3.6 > 3.3  [builtin]
  taught(susan, databases, f89, 3.5)  [edb]
  teach(susan, databases)  [edb]

rules:
  r1: can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
  r2: honor(X) :- student(X, Y, Z), Z > 3.7.
`,
		},
		{
			stmt: "explain prior(databases, programming).",
			want: `prior(databases, programming)  [r1]
  prereq(databases, datastructures)  [edb]
  prior(datastructures, programming)  [r2]
    prereq(datastructures, programming)  [edb]

rules:
  r1: prior(X, Y) :- prereq(X, Z), prior(Z, Y).
  r2: prior(X, Y) :- prereq(X, Y).
`,
		},
	}
	for _, tc := range cases {
		k := loadKB(t, universityProgram)
		res, err := k.ExecStringContext(context.Background(), tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if got := res.Explanation.String(); got != tc.want {
			t.Errorf("%s:\n got:\n%s\nwant:\n%s", tc.stmt, got, tc.want)
		}
	}
}

// TestExplainRecursiveSound verifies structural soundness on a program
// with several routes between the same airports, where which witness is
// recorded first depends on the evaluation order: every answer must
// still be justified by a well-formed tree — derived nodes carry a rule
// and children, leaves are stored facts or comparisons, and nothing is
// unknown or truncated.
func TestExplainRecursiveSound(t *testing.T) {
	k := loadKB(t, routesProgram)
	res, err := k.explain(context.Background(), term.NewAtom("reachable", term.Sym("la"), term.Var("Y")), nil)
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explanation
	// Every airport is reachable from la (the graph is one cycle plus
	// the dal chord).
	if len(exp.Trees) != 6 {
		t.Fatalf("%d answers, want 6", len(exp.Trees))
	}
	for _, tree := range exp.Trees {
		checkSound(t, k, tree)
	}
}

func checkSound(t *testing.T, k *KB, n *prov.Node) {
	t.Helper()
	switch n.Kind {
	case prov.NodeDerived:
		if n.Rule < 1 {
			t.Errorf("derived node %v without a rule id", n.Fact)
		}
		if len(n.Children) == 0 {
			t.Errorf("derived node %v has no children", n.Fact)
		}
		for _, c := range n.Children {
			checkSound(t, k, c)
		}
	case prov.NodeEDB:
		if !k.Store().Contains(n.Fact) {
			t.Errorf("edb leaf %v is not stored", n.Fact)
		}
	case prov.NodeBuiltin, prov.NodeCycle:
		// Comparisons hold by construction; cycles are legal cuts.
	default:
		t.Errorf("node %v has kind %v", n.Fact, n.Kind)
	}
}

// TestExplainProvenanceLimit exercises the governor's
// MaxProvenanceEntries bound: a recursive explain over the routes
// program records more witnesses than the limit allows and must stop
// with a structured LimitError.
func TestExplainProvenanceLimit(t *testing.T) {
	k := loadKB(t, routesProgram)
	ctx := ContextWithLimits(context.Background(), governor.Limits{MaxProvenanceEntries: 3})
	_, err := k.ExecStringContext(ctx, "explain reachable(la, ny).")
	if err == nil {
		t.Fatal("no error with MaxProvenanceEntries=3")
	}
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a LimitError", err)
	}
	if le.Kind != governor.LimitProvenance || le.Limit != 3 {
		t.Errorf("LimitError = %+v, want kind=provenance limit=3", le)
	}
}

// TestExplainStatement checks the parser surface: rendering, the where
// qualifier, and rejection of forms explain does not support.
func TestExplainStatement(t *testing.T) {
	q, err := parser.ParseQuery("explain reachable(la, X) where flight(X, ny).")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := q.(*parser.Explain)
	if !ok {
		t.Fatalf("parsed %T, want *parser.Explain", q)
	}
	if got := e.String(); got != "explain reachable(la, X) where flight(X, ny)." {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{
		"explain reachable(la, X) where not flight(X, ny).",
		"explain reachable(la, X) where flight(X, ny) or flight(ny, X).",
		"explain X > 3.",
	} {
		if _, err := parser.ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", bad)
		}
	}
	// The where qualifier restricts which answers get explained.
	k := loadKB(t, routesProgram)
	res, err := k.ExecStringContext(context.Background(), "explain reachable(la, X) where flight(X, la).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanation.Trees) != 1 || res.Explanation.Trees[0].Fact.String() != "reachable(la, ny)" {
		t.Errorf("qualified explain trees: %v", res.Explanation.Trees)
	}
}

// TestExplainEmptyAnswer pins the no-derivation rendering.
func TestExplainEmptyAnswer(t *testing.T) {
	k := loadKB(t, routesProgram)
	res, err := k.ExecStringContext(context.Background(), "explain reachable(la, mars).")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); !strings.Contains(got, "no derivation") {
		t.Errorf("empty explain rendering = %q", got)
	}
}

// TestExplainStoredPromotedFact: a predicate with both stored facts and
// rules (an EDB predicate promoted by a later rule) must show its stored
// tuples as edb leaves, not derived or unknown.
func TestExplainStoredPromotedFact(t *testing.T) {
	k := loadKB(t, `vip(ann).`)
	if err := k.LoadString(`
vip(X) :- sponsor(X, Y), vip(Y).
sponsor(bob, ann).
`); err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecStringContext(context.Background(), "explain vip(bob).")
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Explanation.Trees[0]
	if len(tree.Children) != 2 {
		t.Fatalf("tree: %s", res.Explanation)
	}
	leaf := tree.Children[1]
	if leaf.Fact.String() != "vip(ann)" || leaf.Kind != prov.NodeEDB {
		t.Errorf("promoted fact leaf = %v [%v], want vip(ann) [edb]", leaf.Fact, leaf.Kind)
	}
}

// TestExplainLeavesConsistentUnderWrites: an explain classifies its
// leaves against the store it evaluated, under the same read lock. A
// writer retracts and re-asserts the stored fact honor(ann) rests on
// while explains run: each answer is the whole derivation or none, never
// a stored leaf shown as unknown.
func TestExplainLeavesConsistentUnderWrites(t *testing.T) {
	k := loadKB(t, universityProgram)
	fact := term.NewAtom("student", term.Sym("ann"), term.Sym("math"), term.Num(3.9))
	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			if _, err := k.Retract(fact); err != nil {
				writer <- err
				return
			}
			if err := k.Assert(fact); err != nil {
				writer <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-writer; err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 2000; i++ {
		res, err := k.ExecStringContext(context.Background(), "explain honor(ann).")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Explanation.String(); strings.Contains(got, "[unknown]") {
			t.Fatalf("explain %d read the store after the evaluation:\n%s", i, got)
		}
	}
}
