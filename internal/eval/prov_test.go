package eval

import (
	"context"
	"errors"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/prov"
	"kdb/internal/term"
)

// TestProvenanceDisabledAllocs is the zero-overhead gate for the
// provenance hook: with recording off (nil recorder — the engine's
// default), the derive-path call must not allocate. This mirrors
// the disabled-path gates of the obs package: observability that is
// off must be free.
func TestProvenanceDisabledAllocs(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("p", x, y), term.NewAtom("q", x, y))
	r := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), nil)
	r.frame[0], r.frame[1] = term.Sym("a"), term.Sym("b")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.fact(); err != nil {
			t.Fatal(err)
		}
		if err := recordProv(nil, nil, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled provenance hook allocates %v per derive, want 0", allocs)
	}
}

// TestProvenanceRecordAllocsPerFact is the price gate for recording: on
// benchProvenance's 50-node chain, a run with a recorder may allocate at
// most two more times per recorded witness than a run without one. A
// witness is a rule id and a frame copied into the recorder's arena, so
// the measured price is well under one (the arena's chunks and the
// index's growth).
func TestProvenanceRecordAllocsPerFact(t *testing.T) {
	in := chainInput(t, 50)
	q := query(t, `retrieve path(X, Y).`)
	var witnesses int
	run := func(rec *prov.Recorder) {
		if _, err := NewSemiNaive(in, WithProvenance(rec)).RetrieveContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		witnesses = rec.Len()
	}
	off := testing.AllocsPerRun(10, func() { run(nil) })
	on := testing.AllocsPerRun(10, func() { run(prov.NewRecorder()) })
	if witnesses == 0 {
		t.Fatal("nothing recorded")
	}
	if per := (on - off) / float64(witnesses); per > 2 {
		t.Errorf("recording allocates %.2f per witness (%v with, %v without, %d witnesses), want at most 2", per, on, off, witnesses)
	}
}

// TestProvenanceRecording checks the engine plumbing at the eval layer:
// with a recorder attached, the engine records one witness per derived
// fact and reports the count in its statistics, which carry the engine's
// own name, and stops at MaxProvenanceEntries.
func TestProvenanceRecording(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	q := query(t, `retrieve path(a, Y).`)
	for name, mk := range witnessEngines {
		in := load(t, src)
		rec := prov.NewRecorder()
		e := mk(in, WithProvenance(rec))
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tuples) != 3 {
			t.Fatalf("%s: %d answers, want 3", name, len(res.Tuples))
		}
		if rec.Len() == 0 {
			t.Errorf("%s: no witnesses recorded", name)
		}
		st := e.(StatsReporter).LastStats()
		if st.Engine != name {
			t.Errorf("%s: stats.Engine = %q", name, st.Engine)
		}
		if st.ProvEntries != rec.Len() {
			t.Errorf("%s: stats.ProvEntries = %d, recorder has %d", name, st.ProvEntries, rec.Len())
		}
		// Every recorded answer must reconstruct into a sound tree.
		exp := rec.Explain(term.NewAtom("path", term.Sym("a"), term.Var("Y")),
			res.Atoms(term.NewAtom("path", term.Sym("a"), term.Var("Y"))),
			func(a term.Atom) bool { return in.Store.Contains(a) }, 0)
		for _, tree := range exp.Trees {
			checkSound(t, in, tree, name)
		}
		_, err = mk(in, WithProvenance(prov.NewRecorder()), WithLimits(governor.Limits{MaxProvenanceEntries: 2})).RetrieveContext(context.Background(), q)
		if le := (*governor.LimitError)(nil); !errors.As(err, &le) || le.Kind != governor.LimitProvenance {
			t.Errorf("%s: with MaxProvenanceEntries=2, err = %v, want a provenance LimitError", name, err)
		}
	}
}

// explainOn answers stmt on e with a provenance recorder attached and
// rebuilds the derivation tree of every answer, as an explain statement
// does.
func explainOn(t *testing.T, mk func(Input, ...EngineOption) Engine, in Input, stmt string) *prov.Explanation {
	t.Helper()
	q := query(t, stmt)
	rec := prov.NewRecorder()
	res, err := mk(in, WithProvenance(rec)).RetrieveContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rec.Explain(q.Subject, res.Atoms(q.Subject), func(a term.Atom) bool { return in.Store.Contains(a) }, 10000)
}

// witnessEngines are the engines the explain tests run: the semi-naive
// engine alone records provenance.
var witnessEngines = map[string]func(Input, ...EngineOption) Engine{
	"seminaive": NewSemiNaive,
}

// TestExplainTreesPinned pins the exact rendered derivation trees of
// facts with a unique derivation, the recursive prior among them.
func TestExplainTreesPinned(t *testing.T) {
	cases := []struct {
		stmt string
		want string
	}{
		{
			stmt: "retrieve honor(ann).",
			want: `honor(ann)  [r1]
  student(ann, math, 3.9)  [edb]
  3.9 > 3.7  [builtin]

rules:
  r1: honor(X) :- student(X, Y, Z), Z > 3.7.
`,
		},
		{
			stmt: "retrieve can_ta(ann, databases).",
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
			stmt: "retrieve prior(databases, programming).",
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
	for name, mk := range witnessEngines {
		for _, tc := range cases {
			if got := explainOn(t, mk, load(t, universityDB), tc.stmt).String(); got != tc.want {
				t.Errorf("%s %s:\n got:\n%s\nwant:\n%s", name, tc.stmt, got, tc.want)
			}
		}
	}
}

// TestExplainRecursiveSound: where a fact has several derivations
// (several routes between the same airports), whichever is recorded
// first justifies every answer with a sound tree.
func TestExplainRecursiveSound(t *testing.T) {
	src := `
flight(la, sf). flight(sf, sea). flight(sea, chi). flight(chi, ny).
flight(ny, la). flight(dal, chi). flight(la, dal).
reachable(X, Y) :- flight(X, Y).
reachable(X, Y) :- flight(X, Z), reachable(Z, Y).
`
	for name, mk := range witnessEngines {
		in := load(t, src)
		exp := explainOn(t, mk, in, "retrieve reachable(la, Y).")
		// Every airport is reachable from la (the graph is one cycle plus
		// the dal chord).
		if len(exp.Trees) != 6 {
			t.Fatalf("%s: %d answers, want 6", name, len(exp.Trees))
		}
		for _, tree := range exp.Trees {
			checkSound(t, in, tree, name)
		}
	}
}

// TestExplainListsARuleOnce: a rule its statement calls with two sets of
// bound head positions runs as two runners, and each interns it with the
// recorder, yet the legend lists it once and every tree cites it by one
// number.
func TestExplainListsARuleOnce(t *testing.T) {
	src := `
e(a, b). e(c, b). e(a, d).
q(X, Y) :- e(X, Y).
p(X, Y) :- q(a, X), q(Y, b).
`
	got := explainOn(t, NewSemiNaive, load(t, src), "retrieve p(X, Y).").String()
	want := `p(b, a)  [r1]
  q(a, b)  [r2]
    e(a, b)  [edb]
  q(a, b)  [r2]
    e(a, b)  [edb]

p(b, c)  [r1]
  q(a, b)  [r2]
    e(a, b)  [edb]
  q(c, b)  [r2]
    e(c, b)  [edb]

p(d, a)  [r1]
  q(a, d)  [r2]
    e(a, d)  [edb]
  q(a, b)  [r2]
    e(a, b)  [edb]

p(d, c)  [r1]
  q(a, d)  [r2]
    e(a, d)  [edb]
  q(c, b)  [r2]
    e(c, b)  [edb]

rules:
  r1: p(X, Y) :- q(a, X), q(Y, b).
  r2: q(X, Y) :- e(X, Y).
`
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// checkSound checks that a derivation tree is well formed: derived nodes
// carry a rule and children, leaves are stored facts or comparisons, and
// nothing is unknown or truncated.
func checkSound(t *testing.T, in Input, n *prov.Node, engine string) {
	t.Helper()
	switch n.Kind {
	case prov.NodeDerived:
		if n.Rule < 1 {
			t.Errorf("%s: derived node %v without a rule id", engine, n.Fact)
		}
		if len(n.Children) == 0 {
			t.Errorf("%s: derived node %v has no children", engine, n.Fact)
		}
		for _, c := range n.Children {
			checkSound(t, in, c, engine)
		}
	case prov.NodeEDB:
		if !in.Store.Contains(n.Fact) {
			t.Errorf("%s: edb leaf %v is not stored", engine, n.Fact)
		}
	case prov.NodeBuiltin, prov.NodeCycle:
		// Comparisons hold by construction; cycles are legal cuts.
	default:
		t.Errorf("%s: node %v has kind %v", engine, n.Fact, n.Kind)
	}
}

// benchProvenance measures a 50-node chain closure with and without
// recording; the Off variant doubles as the allocation baseline the
// overhead guard compares against.
func benchProvenance(b *testing.B, rec bool) {
	in := chainInput(b, 50)
	q := query(b, `retrieve path(X, Y).`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var opts []EngineOption
		if rec {
			opts = append(opts, WithProvenance(prov.NewRecorder()))
		}
		e := NewSemiNaive(in, opts...)
		if _, err := e.RetrieveContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrieveProvenanceOff(b *testing.B) { benchProvenance(b, false) }
func BenchmarkRetrieveProvenanceOn(b *testing.B)  { benchProvenance(b, true) }
