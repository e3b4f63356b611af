package eval

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"kdb/internal/depgraph"
	"kdb/internal/term"
)

// callsString renders a plan's calls as "pred(args) …" sorted, "-" for
// none.
func callsString(calls map[string][][]term.Term) string {
	if len(calls) == 0 {
		return "-"
	}
	var out []string
	for _, pred := range slices.Sorted(maps.Keys(calls)) {
		for _, args := range calls[pred] {
			out = append(out, term.NewAtom(pred, args...).String())
		}
	}
	return strings.Join(out, " ")
}

// TestDemands pins what the walk makes of a statement's constants: which
// non-recursive predicates are run for which calls, and which are
// derived in full.
func TestDemands(t *testing.T) {
	const program = `
e(a, b).
p(X, Y) :- e(X, Y).
q(X) :- p(X, c).
r(X, Y) :- p(X, Z), q(Y).
s(a, Y) :- e(Y, Y).
t(X, X) :- e(X, Y).
path(X, Y) :- e(X, Y).
path(X, Y) :- e(X, Z), path(Z, Y).
via(X, Y) :- path(X, Y).
m(X, Y) :- e(X, Y).
ga(X) :- m(X, Y).
ga(X) :- gb(X).
gb(X) :- ga(X), m(k, X).
`
	for _, tc := range []struct{ stmt, want string }{
		{`retrieve p(a, Y).`, `p(a, Y)`},
		{`retrieve p(X, Y).`, `-`},
		// q's rule passes its text constant c and the call's a on to p.
		{`retrieve q(a).`, `p(a, c) q(a)`},
		// A full caller still passes its text's constants on.
		{`retrieve q(X).`, `p(X, c)`},
		// Two rule levels down: r's call reaches p directly and through q.
		{`retrieve r(a, b).`, `p(a, Z) p(b, c) q(b) r(a, b)`},
		// r's rule calls p free, q's with constants: p is derived in full.
		{`retrieve r(X, b).`, `q(b) r(X, b)`},
		// The more general call serves the other.
		{`retrieve p(a, Y) where p(a, b).`, `p(a, Y)`},
		// Bound in one place, free in another: full.
		{`retrieve p(a, Y) where p(Z, W).`, `-`},
		// Calls the heads refuse stay calls; their rules just derive nothing.
		{`retrieve s(b, Y).`, `s(b, Y)`},
		{`retrieve t(a, b).`, `t(a, b)`},
		// Recursive predicates are derived in full, and so is everything
		// a full recursive rule calls without a constant.
		{`retrieve path(a, Y).`, `-`},
		{`retrieve via(a, Y).`, `via(a, Y)`},
		// A recursive group reached through one member is reached whole:
		// ga's free call of m counts though the statement names only gb,
		// which sorts after it.
		{`retrieve gb(X).`, `-`},
		{`retrieve ga(X).`, `-`},
	} {
		in := load(t, program)
		p, err := buildPlan(in, query(t, tc.stmt))
		if err != nil {
			t.Fatal(err)
		}
		if got := callsString(p.demands()); got != tc.want {
			t.Errorf("%s: calls %s, want %s", tc.stmt, got, tc.want)
		}
	}
}

// TestSpecialisedComponentStats: a component run for its calls answers
// as the oracle does and says how many calls in its record and in the
// --stats report; one run in full says nothing.
func TestSpecialisedComponentStats(t *testing.T) {
	in := load(t, universityDB)
	for _, tc := range []struct {
		stmt  string
		calls map[string]int
	}{
		{`retrieve can_ta(ann, Y) where can_ta(cora, Z).`, map[string]int{"can_ta": 2, "honor": 2}},
		{`retrieve can_ta(X, databases).`, map[string]int{"can_ta": 1}},
		{`retrieve can_ta(X, Y).`, nil},
	} {
		e := NewSemiNaive(in)
		q := query(t, tc.stmt)
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleRetrieve(in, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Strings(); len(got) == 0 || !slices.Equal(got, want.Strings()) {
			t.Errorf("%s answered %v, the oracle %v", tc.stmt, got, want.Strings())
		}
		st := e.(StatsReporter).LastStats()
		for _, c := range st.Components {
			if c.Skipped {
				continue
			}
			want := tc.calls[c.Preds[0]]
			if c.Calls != want {
				t.Errorf("%s: component %v ran %d calls, want %d", tc.stmt, c.Preds, c.Calls, want)
			}
			line := fmt.Sprintf("scc [%s] ", strings.Join(c.Preds, " "))
			i := strings.Index(st.String(), line)
			end := strings.IndexByte(st.String()[i:]+"\n", '\n')
			if got := strings.Contains(st.String()[i:i+end], fmt.Sprintf(" calls=%d", want)); got != (want > 0) {
				t.Errorf("%s: report line %q", tc.stmt, st.String()[i:i+end])
			}
		}
	}
}

// TestUnspecialisedStatementAllocs: a statement whose constants reach no
// non-recursive derived predicate allocates exactly what the engine
// allocates when it derives every predicate in full, and no more than
// before calls were specialised (the ceilings are that commit's
// figures). The shapes are a closure-shaped retrieve — recursive, so
// derived in full whatever it binds — and honor(X) where enroll(X,
// databases), whose constant reaches only a stored predicate.
func TestUnspecialisedStatementAllocs(t *testing.T) {
	for _, tc := range []struct {
		in      Input
		stmt    string
		ceiling float64
	}{
		{chainClosure(t, 20), `retrieve path(c0, Y).`, 393},
		{chainClosure(t, 20), `retrieve path(X, Y).`, 582},
		{load(t, universityDB), `retrieve honor(X) where enroll(X, databases).`, 60},
	} {
		in := tc.in
		in.Prepared = Prepare(depgraph.New(in.Rules))
		q := query(t, tc.stmt)
		allocs := func(e Engine) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := e.RetrieveContext(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			})
		}
		got, full := allocs(NewSemiNaive(in)), allocs(&bottomUp{in: in, full: true})
		if got != full || got > tc.ceiling {
			t.Errorf("%s: %v allocs; derived in full %v, ceiling %v", tc.stmt, got, full, tc.ceiling)
		}
	}
}

// TestRefusedCallsDeriveNothing: a rule whose head cannot take a call —
// a head constant other than the call's, a repeated head variable the
// call fixes to two constants — is not run for it, so its component
// derives nothing; the rule still serves a call it admits.
func TestRefusedCallsDeriveNothing(t *testing.T) {
	in := load(t, `
e(a, a).
e(b, c).
s(a, Y) :- e(Y, Y).
t(X, X) :- e(X, Y).
`)
	for _, tc := range []struct {
		stmt  string
		facts int // the component's
	}{
		{`retrieve s(b, Y).`, 0},
		{`retrieve t(a, b).`, 0},
		{`retrieve s(a, Y).`, 1},
		{`retrieve t(b, b).`, 1},
	} {
		e := NewSemiNaive(in)
		if _, err := e.RetrieveContext(context.Background(), query(t, tc.stmt)); err != nil {
			t.Fatal(err)
		}
		q := query(t, tc.stmt)
		i := slices.IndexFunc(e.(StatsReporter).LastStats().Components, func(c ComponentStats) bool {
			return slices.Equal(c.Preds, []string{q.Subject.Pred})
		})
		c := e.(StatsReporter).LastStats().Components[i]
		if c.Calls != 1 || c.Facts != tc.facts {
			t.Errorf("%s: component %v ran %d calls deriving %d facts, want 1 call deriving %d", tc.stmt, c.Preds, c.Calls, c.Facts, tc.facts)
		}
	}
}

// TestRecursiveGroupPassesCallsOn: a statement that reaches a mutually
// recursive group through one member still derives the group's callees
// for every member's calls. a's free call of s must keep s whole though
// only b, which sorts after a, is named; specialising s to s(k, _) would
// lose a(2) and with it the one answer.
func TestRecursiveGroupPassesCallsOn(t *testing.T) {
	in := load(t, `
e(k, 2).
e(2, 3).
s(X, Y) :- e(X, Y).
a(X) :- s(X, Y).
a(X) :- b(X).
b(X) :- a(X), s(k, X).
`)
	q := query(t, `retrieve b(X).`)
	if d := judge(in, q); d != "" {
		t.Fatal(d)
	}
	res, err := NewSemiNaive(in).RetrieveContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Strings(), []string{"2"}; !slices.Equal(got, want) {
		t.Errorf("answered %v, want %v", got, want)
	}
}
