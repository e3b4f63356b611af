package prov

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kdb/internal/term"
)

func atom(pred string, args ...string) term.Atom {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		ts[i] = term.Sym(a)
	}
	return term.NewAtom(pred, ts...)
}

// edge/path fixture: path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).
var (
	x, y, z  = term.Var("X"), term.Var("Y"), term.Var("Z")
	baseRule = term.NewRule(term.NewAtom("path", x, y), term.NewAtom("edge", x, y))
	stepRule = term.NewRule(term.NewAtom("path", x, y),
		term.NewAtom("edge", x, z), term.NewAtom("path", z, y))
)

// record records fact as derived by rule with its variables bound as in
// s: the frame holds one slot per variable of the rule, in order of first
// occurrence.
func record(r *Recorder, fact term.Atom, rule term.Rule, s term.Subst) int {
	vars := rule.Vars()
	slots := make([]int, len(vars))
	frame := make([]term.Term, len(vars))
	for i, v := range vars {
		slots[i] = -1
		if t, ok := s[v]; ok {
			slots[i], frame[i] = i, t
		}
	}
	return r.Record(r.Intern(rule, rule.Head, rule.Body, vars, slots), fact, frame)
}

func recordPath(t *testing.T, r *Recorder) {
	t.Helper()
	// path(b,c) :- edge(b,c).   path(a,c) :- edge(a,b), path(b,c).
	record(r, atom("path", "b", "c"), baseRule, term.Subst{x: term.Sym("b"), y: term.Sym("c")})
	record(r, atom("path", "a", "c"), stepRule,
		term.Subst{x: term.Sym("a"), y: term.Sym("c"), z: term.Sym("b")})
}

// explainText explains the ground facts with edge as the only stored
// predicate.
func explainText(r *Recorder, facts ...term.Atom) string {
	return r.Explain(facts[0], facts, func(a term.Atom) bool { return a.Pred == "edge" }, 0).String()
}

func TestRecordFirstWitnessWins(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	// A second derivation of path(b,c) must not replace the first.
	n := record(r, atom("path", "b", "c"), stepRule,
		term.Subst{x: term.Sym("b"), y: term.Sym("c"), z: term.Sym("q")})
	if n != 2 || r.Len() != 2 {
		t.Fatalf("duplicate record changed the store: n=%d len=%d", n, r.Len())
	}
	want := `path(b, c)  [r1]
  edge(b, c)  [edb]

rules:
  r1: path(X, Y) :- edge(X, Y).
`
	if got := explainText(r, atom("path", "b", "c")); got != want {
		t.Fatalf("first witness replaced:\n%s", got)
	}
}

// TestRecordCopiesFrame: the fact and the frame are buffers the engines
// reuse for the next solution, so a witness must not alias them.
func TestRecordCopiesFrame(t *testing.T) {
	r := NewRecorder()
	vars := []term.Term{x, y}
	id := r.Intern(baseRule, baseRule.Head, baseRule.Body, vars, []int{0, 1})
	fact := term.NewAtom("path", term.Sym("a"), term.Sym("b"))
	frame := []term.Term{term.Sym("a"), term.Sym("b")}
	r.Record(id, fact, frame)
	fact.Args[1], frame[1] = term.Sym("c"), term.Sym("c")
	r.Record(id, fact, frame)
	want := `path(a, b)  [r1]
  edge(a, b)  [edb]

path(a, c)  [r1]
  edge(a, c)  [edb]

rules:
  r1: path(X, Y) :- edge(X, Y).
`
	if got := explainText(r, atom("path", "a", "b"), atom("path", "a", "c")); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if n := r.Record(r.Intern(baseRule, baseRule.Head, baseRule.Body, nil, nil), atom("p", "a"), nil); n != 0 {
		t.Errorf("nil Record = %d, want 0", n)
	}
	if r.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", r.Len())
	}
}

func TestExplainTree(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	isEDB := func(a term.Atom) bool { return a.Pred == "edge" }
	e := r.Explain(term.NewAtom("path", term.Sym("a"), y),
		[]term.Atom{atom("path", "a", "c")}, isEDB, 0)
	want := `path(a, c)  [r1]
  edge(a, b)  [edb]
  path(b, c)  [r2]
    edge(b, c)  [edb]

rules:
  r1: path(X, Y) :- edge(X, Z), path(Z, Y).
  r2: path(X, Y) :- edge(X, Y).
`
	if got := e.String(); got != want {
		t.Errorf("text rendering:\n got:\n%s\nwant:\n%s", got, want)
	}
	if e.Nodes != 4 || e.Entries != 2 || e.Truncated {
		t.Errorf("Nodes=%d Entries=%d Truncated=%v", e.Nodes, e.Entries, e.Truncated)
	}
}

func TestExplainCycleSafe(t *testing.T) {
	r := NewRecorder()
	// A self-supporting witness, which no evaluation records but a tree
	// must still survive: p(a) witnessed by p(a) itself.
	self := term.NewRule(term.NewAtom("p", x), term.NewAtom("p", x))
	record(r, atom("p", "a"), self, term.Subst{x: term.Sym("a")})
	e := r.Explain(atom("p", "a"), []term.Atom{atom("p", "a")}, nil, 0)
	tree := e.Trees[0]
	if tree.Kind != NodeDerived || len(tree.Children) != 1 {
		t.Fatalf("root: %+v", tree)
	}
	if tree.Children[0].Kind != NodeCycle {
		t.Fatalf("child kind = %v, want cycle", tree.Children[0].Kind)
	}
}

func TestExplainLeafKinds(t *testing.T) {
	r := NewRecorder()
	gt := term.NewAtom(">", term.Var("G"), term.Num(3.7))
	rule := term.NewRule(term.NewAtom("honor", x),
		term.NewAtom("student", x, term.Var("G")), gt)
	record(r, atom("honor", "ann"), rule, term.Subst{x: term.Sym("ann"), term.Var("G"): term.Num(3.9)})
	isEDB := func(a term.Atom) bool { return a.Pred == "student" }
	e := r.Explain(atom("honor", "ann"), []term.Atom{atom("honor", "ann"), atom("honor", "zoe")}, isEDB, 0)
	root := e.Trees[0]
	if root.Children[0].Kind != NodeEDB {
		t.Errorf("student leaf kind = %v, want edb", root.Children[0].Kind)
	}
	if root.Children[1].Kind != NodeBuiltin {
		t.Errorf("comparison leaf kind = %v, want builtin", root.Children[1].Kind)
	}
	if e.Trees[1].Kind != NodeUnknown {
		t.Errorf("witness-less fact kind = %v, want unknown", e.Trees[1].Kind)
	}
}

func TestExplainNodeBudget(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	e := r.Explain(atom("path", "a", "c"), []term.Atom{atom("path", "a", "c")},
		func(a term.Atom) bool { return a.Pred == "edge" }, 2)
	if !e.Truncated {
		t.Fatal("budget of 2 did not truncate a 4-node tree")
	}
	if !strings.Contains(e.String(), "truncated") {
		t.Error("text rendering does not mention truncation")
	}
}

func TestExplainEmpty(t *testing.T) {
	r := NewRecorder()
	e := r.Explain(atom("p", "a"), nil, nil, 0)
	if !strings.Contains(e.String(), "no derivation") {
		t.Errorf("empty explanation rendering = %q", e.String())
	}
}

func TestExplainJSON(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	e := r.Explain(atom("path", "a", "c"), []term.Atom{atom("path", "a", "c")},
		func(a term.Atom) bool { return a.Pred == "edge" }, 0)
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Subject string `json:"subject"`
		Trees   []struct {
			Fact string `json:"fact"`
			Kind string `json:"kind"`
			Rule int    `json:"rule"`
		} `json:"trees"`
		Rules []string `json:"rules"`
		Nodes int      `json:"nodes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(wire.Trees) != 1 || wire.Trees[0].Fact != "path(a, c)" || wire.Trees[0].Rule != 1 {
		t.Errorf("trees: %+v", wire.Trees)
	}
	if len(wire.Rules) != 2 || wire.Nodes != 4 {
		t.Errorf("rules=%v nodes=%d", wire.Rules, wire.Nodes)
	}
}
