package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kdb/internal/depgraph"
	"kdb/internal/term"
)

// calleesString renders a plan's callees as their call tables' names,
// sorted, "-" for none.
func calleesString(p *plan) string {
	if len(p.callees) == 0 {
		return "-"
	}
	var out []string
	for _, ce := range p.callees {
		out = append(out, ce.table)
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// TestSidewaysCalls pins what the walk makes of a statement's calls:
// which non-recursive predicates are run for which masks, and which are
// derived in full.
func TestSidewaysCalls(t *testing.T) {
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
		{`retrieve p(a, Y).`, `m$p#bf`},
		{`retrieve p(X, Y).`, `-`},
		// q's rule passes its text constant c and the call's value on to p.
		{`retrieve q(a).`, `m$p#bb m$q#b`},
		// A caller run in full still passes its text's constants on.
		{`retrieve q(X).`, `m$p#fb`},
		// Two rule levels down: r's call reaches p directly and through q.
		{`retrieve r(a, b).`, `m$p#bb m$p#bf m$q#b m$r#bb`},
		// r's rule calls p with nothing bound, q with the call's value: p
		// is derived in full.
		{`retrieve r(X, b).`, `m$q#b m$r#fb`},
		// Each mask has its own table.
		{`retrieve p(a, Y) where p(a, b).`, `m$p#bb m$p#bf`},
		// Bound in one place, free in another: full.
		{`retrieve p(a, Y) where p(Z, W).`, `-`},
		// Calls the heads refuse stay calls; their rules just derive nothing.
		{`retrieve s(b, Y).`, `m$s#bf`},
		{`retrieve t(a, b).`, `m$t#bb`},
		// Sideways: a stored atom binds the call, wherever it is written.
		{`retrieve e(X, Y) where p(X, Y).`, `m$p#bb`},
		{`retrieve q(X) where e(X, Y).`, `m$p#bb m$q#b`},
		// Recursive predicates are derived in full, and so is everything
		// a recursive component calls.
		{`retrieve path(a, Y).`, `-`},
		{`retrieve via(a, Y).`, `m$via#bf`},
		// A recursive group reached through one member is reached whole:
		// ga's free call of m counts though the statement names only gb,
		// which sorts after it.
		{`retrieve gb(X).`, `-`},
		{`retrieve ga(X).`, `-`},
	} {
		in := load(t, program)
		p, err := buildPlan(in, query(t, tc.stmt), true)
		if err != nil {
			t.Fatal(err)
		}
		if p.sideways(); calleesString(p) != tc.want {
			t.Errorf("%s: callees %s, want %s", tc.stmt, calleesString(p), tc.want)
		}
	}
}

// TestSpecialisedComponentStats: a component run for its calls answers
// as the oracle does and says how many calls under which masks in its
// record and in the --stats report; one run in full says nothing.
func TestSpecialisedComponentStats(t *testing.T) {
	in := load(t, universityDB)
	type calls struct {
		n    int
		mask string
	}
	for _, tc := range []struct {
		stmt  string
		calls map[string]calls
	}{
		{`retrieve can_ta(ann, Y) where can_ta(cora, Z).`, map[string]calls{"can_ta": {2, "bf"}, "honor": {2, "b"}}},
		// can_ta's rules call honor once complete has bound its argument
		// and the comparison has kept it: for ann, cora and dan.
		{`retrieve can_ta(X, databases).`, map[string]calls{"can_ta": {1, "fb"}, "honor": {3, "b"}}},
		{`retrieve can_ta(X, Y).`, map[string]calls{"honor": {3, "b"}}},
		{`retrieve honor(X) where enroll(X, databases).`, map[string]calls{"honor": {3, "b"}}},
		{`retrieve honor(X).`, nil},
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
			want := tc.calls[c.Preds[0]]
			if c.Calls != want.n || c.Mask != want.mask {
				t.Errorf("%s: component %v ran %d calls under %q, want %d under %q", tc.stmt, c.Preds, c.Calls, c.Mask, want.n, want.mask)
			}
			line := fmt.Sprintf("scc [%s] ", strings.Join(c.Preds, " "))
			i := strings.Index(st.String(), line)
			end := strings.IndexByte(st.String()[i:]+"\n", '\n')
			if got := strings.Contains(st.String()[i:i+end], fmt.Sprintf(" calls=%d mask=%s", want.n, want.mask)); got != (want.n > 0) {
				t.Errorf("%s: report line %q", tc.stmt, st.String()[i:i+end])
			}
		}
	}
}

// TestUnspecialisedStatementAllocs: a statement whose calls bind no
// argument of a non-recursive derived predicate allocates exactly what
// the engine allocates when it derives every predicate in full: a
// closure-shaped retrieve, recursive, so derived in full whatever it
// binds, whose answers cannot repeat, so it keeps no query table (the
// ceilings are the measured figures; 82 and 96 with the table).
// honor(X) where enroll(X, databases), whose enroll binds honor's
// argument sideways, runs honor for those calls alone, below the 60
// allocations it took when honor was derived in full (54; 55 or 56 under
// the race detector, its call table reused from the last).
func TestUnspecialisedStatementAllocs(t *testing.T) {
	for _, tc := range []struct {
		in       Input
		stmt     string
		ceiling  float64
		sideways bool
	}{
		{chainClosure(t, 20), `retrieve path(c0, Y).`, 79, false},
		{chainClosure(t, 20), `retrieve path(X, Y).`, 82, false},
		{load(t, universityDB), `retrieve honor(X) where enroll(X, databases).`, 56, true},
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
		if got != full && !tc.sideways || got > tc.ceiling {
			t.Errorf("%s: %v allocs; derived in full %v, ceiling %v", tc.stmt, got, full, tc.ceiling)
		}
	}
}

// TestDistinctAnswersBytes: a statement whose answers cannot repeat keeps
// no query table. Over a 20-node chain `path(X, Y)` hands over the rows
// of path's derived table and `path(c0, Y)` projects its answers into a
// table with no member set: 41 304 and 37 339 bytes per statement
// (MemStats TotalAlloc, 50 statements), against 64 024 and 37 835 with
// the query table. Each ceiling lies halfway between the two, so the test
// fails when half a saving is lost, not when a toolchain or the race
// detector moves the count by a few bytes.
func TestDistinctAnswersBytes(t *testing.T) {
	in := chainClosure(t, 20)
	in.Prepared = Prepare(depgraph.New(in.Rules))
	for _, tc := range []struct {
		stmt            string
		measured, table uint64
	}{
		{`retrieve path(X, Y).`, 41304, 64024},
		{`retrieve path(c0, Y).`, 37339, 37835},
	} {
		e, q := NewSemiNaive(in), query(t, tc.stmt)
		run := func() {
			if _, err := e.RetrieveContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the stored relation's indexes
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		got, ceiling := (after.TotalAlloc-before.TotalAlloc)/runs, (tc.measured+tc.table)/2
		t.Logf("%s: %d bytes per statement", tc.stmt, got)
		if got > ceiling {
			t.Errorf("%s: %d bytes per statement, ceiling %d", tc.stmt, got, ceiling)
		}
	}
}

// universityKB is the paper's KB over n generated students, dealt out as
// the benchmark's registrar workload deals them: GPAs and grades cycle
// through the multiples of 0.1 in [2, 4], so one student in seven is an
// honor student, and every student is enrolled in, and has completed,
// one of five busy courses — databases among them — and one of
// twenty-five others. Every course is taught in five semesters, three of
// them by whoever teaches it now.
func universityKB(t testing.TB, n int) Input {
	r := rand.New(rand.NewSource(1))
	deal := func(k int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i % k
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	course := func(i int) string {
		if i == 0 {
			return "databases"
		}
		return fmt.Sprintf("c%02d", i)
	}
	var b strings.Builder
	for c := range 30 {
		fmt.Fprintf(&b, "teach(p%d, %s).\n", c%10, course(c))
		for k, sem := range []string{"f87", "s88", "f88", "s89", "f89"} {
			fmt.Fprintf(&b, "taught(p%d, %s, %s, 3.5).\n", (c+k/3)%10, course(c), sem)
		}
	}
	majors := []string{"math", "cs", "physics", "chemistry", "history", "biology"}
	gpa, major, enBusy, enOther, doneBusy, doneOther, sem, grade1, grade2 := deal(21), deal(len(majors)), deal(5), deal(25), deal(5), deal(25), deal(5), deal(21), deal(21)
	for i := range n {
		fmt.Fprintf(&b, "student(s%04d, %s, %g).\n", i, majors[major[i]], float64(20+gpa[i])/10)
		fmt.Fprintf(&b, "enroll(s%04d, %s).\nenroll(s%04d, %s).\n", i, course(enBusy[i]), i, course(5+enOther[i]))
		fmt.Fprintf(&b, "complete(s%04d, %s, f8%d, %g).\n", i, course(doneBusy[i]), 7+sem[i]%3, float64(20+grade1[i])/10)
		fmt.Fprintf(&b, "complete(s%04d, %s, s8%d, %g).\n", i, course(5+doneOther[i]), 8+sem[i]%2, float64(20+grade2[i])/10)
	}
	b.WriteString(universityDB[strings.Index(universityDB, "honor(X) :-"):])
	return load(t, b.String())
}

// TestSidewaysCalleeDerivesOnlyCalledFacts: for honor(X) where enroll(X,
// databases) the honor component runs once per student enrolled in
// databases and derives exactly those of them who are honor students.
func TestSidewaysCalleeDerivesOnlyCalledFacts(t *testing.T) {
	in := universityKB(t, 300)
	called := map[string]bool{}
	for _, f := range in.Store.Facts("enroll") {
		if f.Args[1] == term.Sym("databases") {
			called[f.Args[0].String()] = true
		}
	}
	honor := 0
	for _, f := range in.Store.Facts("student") {
		if called[f.Args[0].String()] && f.Args[2].Float() > 3.7 {
			honor++
		}
	}
	e := NewSemiNaive(in)
	res, err := e.RetrieveContext(context.Background(), query(t, `retrieve honor(X) where enroll(X, databases).`))
	if err != nil {
		t.Fatal(err)
	}
	st := e.(StatsReporter).LastStats()
	i := slices.IndexFunc(st.Components, func(c ComponentStats) bool { return slices.Equal(c.Preds, []string{"honor"}) })
	c := st.Components[i]
	if honor == 0 || len(res.Tuples) != honor || c.Facts != honor || c.Calls != len(called) {
		t.Errorf("%d answers; honor ran %d calls deriving %d facts, want %d calls deriving %d", len(res.Tuples), c.Calls, c.Facts, len(called), honor)
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
