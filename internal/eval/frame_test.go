package eval

import (
	"fmt"
	"testing"
)

// TestCompileBodyOrder: the resolution order is fixed at compile time and
// is the one the interpreter would pick — a comparison as soon as both
// sides are bound, an equality as soon as one side is, ordinary atoms in
// textual order otherwise — whatever order the body was written in.
func TestCompileBodyOrder(t *testing.T) {
	in := load(t, `h(X, E) :- Z > 3, E = Y, q(X, Y), F = G, r(Y, Z, Z), X != Y.`)
	rule := in.Rules[0]
	c := compileBody(rule.Head, rule.Body)
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
	d := newDerived(nil)
	c := &component{store: in.Store, d: d, cs: &ComponentStats{}, next: newDerived(nil), pin: -1}
	rule := in.Rules[0]
	r := newRunner(rule, compileBody(rule.Head, rule.Body), c)
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
