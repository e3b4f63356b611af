package eval

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// TestCompileBodyOrder: the resolution order is fixed at compile time and
// is the one the interpreter would pick — a comparison as soon as both
// sides are bound, an equality as soon as one side is, ordinary atoms in
// textual order otherwise — whatever order the body was written in.
func TestCompileBodyOrder(t *testing.T) {
	in := load(t, `h(X, E) :- Z > 3, E = Y, q(X, Y), F = G, r(Y, Z, Z), X != Y.`)
	rule := in.Rules[0]
	c := compileBody(rule.Head, rule.Body, nil, 0, false)
	var got []string
	for _, st := range c.steps {
		got = append(got, fmt.Sprintf("%d:%v", st.kind, st.atom))
	}
	want := []string{
		fmt.Sprintf("%d:q(X, Y)", stepProbe),
		fmt.Sprintf("%d:E = Y", stepAssign),
		fmt.Sprintf("%d:X != Y", stepFilter),
		fmt.Sprintf("%d:r(Y, Z, Z)", stepProbe),
		fmt.Sprintf("%d:Z > 3", stepFilter),
		// F = G binds nothing and constrains nothing: no step.
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("steps = %v\nwant    %v", got, want)
	}
	if !c.ground {
		t.Error("head reported non-ground")
	}
	// r(Y, Z, Z): Y is read from the frame, Z bound once from its first
	// occurrence; the repeat is left to the relation.
	r := c.steps[3]
	if len(r.bound) != 1 || r.bound[0].pos != 0 || len(r.binds) != 1 || r.binds[0].pos != 1 {
		t.Errorf("r(Y, Z, Z): bound %v binds %v", r.bound, r.binds)
	}
}

// TestCompiledJoinRoundAllocs: one more round of a compiled two-atom join
// that derives nothing new allocates nothing — no substitution, pattern or
// map per candidate, and a duplicate head costs no copy.
func TestCompiledJoinRoundAllocs(t *testing.T) {
	in := load(t, `
e(a, b). e(b, c). e(c, d). e(d, e). e(a, c). e(b, d).
two(X, Z) :- e(X, Y), e(Y, Z), X != Z.
`)
	d := make(derived)
	c := &component{store: in.Store, d: d, cs: &ComponentStats{}, pin: -1}
	rule := in.Rules[0]
	r := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), c)
	if err := r.exec(); err != nil {
		t.Fatal(err)
	}
	if c.fresh == 0 {
		t.Fatal("the first round derived nothing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.exec(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a round that derives nothing new allocates %v, want 0", allocs)
	}
}

// TestFullLookupSuppressesStoredDuplicates: when a predicate has both
// derived and stored tuples, the component's resolve must enumerate each
// fact once — stored tuples already derived are suppressed.
func TestFullLookupSuppressesStoredDuplicates(t *testing.T) {
	in := load(t, `p(a). p(b).`)
	d := make(derived)
	// p(a) is both stored and derived; p(c) only derived; p(b) only stored.
	for _, name := range []string{"a", "c"} {
		if _, err := d.insert(term.NewAtom("p", term.Sym(name))); err != nil {
			t.Fatal(err)
		}
	}
	drv := newHeadsDriver(in.Store)
	drv.d = d
	x := term.Var("X")
	rule := term.NewRule(term.NewAtom("q", x), term.NewAtom("p", x))
	if err := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), drv).exec(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, head := range drv.heads {
		counts[head.Args[0].Name()]++
	}
	want := map[string]int{"a": 1, "b": 1, "c": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("enumerated %v, want each of a, b, c exactly once", drv.heads)
	}
	if drv.cs.Lookups != 1 {
		t.Errorf("Lookups = %d, want 1", drv.cs.Lookups)
	}
}

// TestChooseAtomReportsOffender: the "unbound comparison" error must name
// the actual unevaluable comparison with the bindings of that moment
// applied, not whatever atom happens to be first in the body — and only
// when evaluation reaches it.
func TestChooseAtomReportsOffender(t *testing.T) {
	// body[0] is an evaluable equality; the offender is the later
	// comparison whose right side stays unbound.
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("q", x),
		term.NewAtom(term.PredEq, x, term.Num(5)),
		term.NewAtom(term.PredGt, x, y),
	)
	drv := newHeadsDriver(storage.NewMemory())
	err := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), drv).exec()
	if err == nil {
		t.Fatal("expected an unbound-comparison error")
	}
	if !strings.Contains(err.Error(), "5 > Y") {
		t.Errorf("error %q does not name the offending comparison 5 > Y", err)
	}
	if strings.Contains(err.Error(), "= 5") {
		t.Errorf("error %q names the equality instead of the offender", err)
	}

	// Behind an atom with no tuples the same comparison is never reached.
	rule.Body = append(term.Formula{term.NewAtom("nothing", x)}, rule.Body[1])
	if err := newRunner(rule, compileBody(rule.Head, rule.Body, nil, 0, false), drv).exec(); err != nil {
		t.Errorf("unreached comparison raised %v", err)
	}
}
