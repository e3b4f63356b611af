package term

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndAccessors(t *testing.T) {
	v := Var("X")
	if !v.IsVar() || v.IsConst() || v.Name() != "X" || v.Kind() != KindVar {
		t.Errorf("Var(X) = %#v", v)
	}
	s := Sym("databases")
	if s.IsVar() || !s.IsConst() || s.Name() != "databases" || s.Kind() != KindSymbol {
		t.Errorf("Sym(databases) = %#v", s)
	}
	n := Num(3.7)
	if n.IsVar() || n.Float() != 3.7 || n.Kind() != KindNumber {
		t.Errorf("Num(3.7) = %#v", n)
	}
	q := Str("Susan B.")
	if q.IsVar() || q.Name() != "Susan B." || q.Kind() != KindString {
		t.Errorf("Str = %#v", q)
	}
	// The word: a number keeps its bits, a NaN's payload too; a constant
	// built twice is one constant with one hash; Float of a non-number
	// is 0.
	for _, bits := range []uint64{math.Float64bits(math.Copysign(0, -1)), 0x7ff8000000000001, 0xfff0000000000001} {
		if got := math.Float64bits(Num(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("Num(%#x).Float() has bits %#x", bits, got)
		}
	}
	if s != Sym("databases") || s.Hash() != Sym("databases").Hash() || q.Hash() != Str("Susan B.").Hash() {
		t.Error("a constant built twice must be one constant with one hash")
	}
	if s.Float() != 0 || q.Float() != 0 || v.Float() != 0 {
		t.Error("Float of a non-number must be 0")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{Var("X"), "X"},
		{Sym("databases"), "databases"},
		{Num(3.7), "3.7"},
		{Num(4), "4"},
		{Str("a b"), `"a b"`},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTermEqualAndCompare(t *testing.T) {
	if !Var("X").Equal(Var("X")) {
		t.Error("identical variables must be equal")
	}
	if Var("X").Equal(Sym("X")) {
		t.Error("variable and symbol with same spelling must differ")
	}
	if Num(1).Equal(Num(2)) {
		t.Error("distinct numbers must differ")
	}
	// Compare is a total order: antisymmetric and consistent with Equal.
	terms := []Term{Var("A"), Var("Z"), Sym("a"), Sym("z"), Num(-1), Num(0), Num(2.5), Str(""), Str("x"),
		Num(math.Copysign(0, -1)), Num(math.NaN()), Num(math.Inf(1)), Num(math.Inf(-1))}
	for _, a := range terms {
		for _, b := range terms {
			ca, cb := a.Compare(b), b.Compare(a)
			if (ca == 0) != a.Equal(b) {
				t.Errorf("Compare(%v,%v)=0 inconsistent with Equal", a, b)
			}
			if ca > 0 && cb >= 0 || ca < 0 && cb <= 0 {
				t.Errorf("Compare(%v,%v)=%d but Compare(%v,%v)=%d", a, b, ca, b, a, cb)
			}
		}
	}
}

func TestAtomBasics(t *testing.T) {
	args := []Term{Var("X"), Sym("math"), Num(3.9)}
	a := NewAtom("student", args...)
	args[0] = Sym("mutated") // NewAtom must have copied
	if !a.Args[0].IsVar() {
		t.Error("NewAtom must copy its argument slice")
	}
	if a.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", a.Arity())
	}
	if a.Functor() != "student/3" {
		t.Errorf("Functor = %q", a.Functor())
	}
	if got, want := a.String(), "student(X, math, 3.9)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if a.IsGround() {
		t.Error("atom with a variable is not ground")
	}
	if !NewAtom("p", Sym("a"), Num(1)).IsGround() {
		t.Error("constant atom must be ground")
	}
}

func TestAtomComparisonRendering(t *testing.T) {
	a := NewAtom(">", Var("Z"), Num(3.7))
	if got, want := a.String(), "Z > 3.7"; got != want {
		t.Errorf("comparison String = %q, want %q", got, want)
	}
	if !IsComparison(a) {
		t.Error("IsComparison must recognize binary >")
	}
	if IsComparison(NewAtom(">", Var("X"))) {
		t.Error("unary > is not a comparison atom")
	}
	if IsComparison(NewAtom("p", Var("X"), Var("Y"))) {
		t.Error("p/2 is not a comparison atom")
	}
	for _, p := range []string{"=", "!=", "<", "<=", ">", ">="} {
		if !IsComparisonPred(p) {
			t.Errorf("IsComparisonPred(%q) = false", p)
		}
	}
	if IsComparisonPred("==") || IsComparisonPred("p") {
		t.Error("IsComparisonPred accepted a non-comparison")
	}
}

// TestAtomStringOneAllocation: an answer line renders with one
// allocation, the string itself, and reads as the terms' own String
// joined by the atom syntax — numbers, quoted strings with escapes,
// comparisons infix, and lines longer than the stack buffer included.
func TestAtomStringOneAllocation(t *testing.T) {
	long := strings.Repeat("x", 200)
	cases := []Atom{
		NewAtom("honor", Sym("ann"), Num(3.75), Str("Susan \"B.\"\n"), Num(-1e-300), Num(math.Copysign(0, -1)), Var("X")),
		NewAtom(">=", Var("Z"), Str("é\t")),
		NewAtom("p"),
		NewAtom("q", Sym(long), Num(math.Inf(1)), Num(math.NaN())),
	}
	for _, a := range cases {
		var want string
		if IsComparison(a) {
			want = a.Args[0].String() + " " + a.Pred + " " + a.Args[1].String()
		} else {
			parts := make([]string, len(a.Args))
			for i, x := range a.Args {
				parts[i] = x.String()
			}
			want = a.Pred
			if len(a.Args) > 0 {
				want += "(" + strings.Join(parts, ", ") + ")"
			}
		}
		if got := a.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = cases[0].String() }); allocs != 1 {
		t.Errorf("rendering %v allocates %v times, want 1", cases[0], allocs)
	}
}

// TestAtomAppendFixed: an atom's fixed texts, each argument's AppendTo
// between each two, are AppendTo's line, infix and zero-arity atoms
// included.
func TestAtomAppendFixed(t *testing.T) {
	for _, a := range []Atom{
		NewAtom("p"),
		NewAtom("p", Sym("a")),
		NewAtom("path", Sym("n1"), Num(2.5), Str("x, y)")),
		NewAtom("<=", Var("Z"), Num(3.7)),
		NewAtom(">", Sym("a")),
		NewAtom("=", Sym("a"), Sym("b"), Sym("c")),
	} {
		got := a.AppendFixed(nil, 0)
		for i, x := range a.Args {
			got = a.AppendFixed(x.AppendTo(got), i+1)
		}
		if string(got) != a.String() {
			t.Errorf("fixed texts and arguments of %v give %q", a, got)
		}
	}
}

func TestAtomEqualCompareKey(t *testing.T) {
	a := NewAtom("p", Var("X"), Sym("a"))
	b := NewAtom("p", Var("X"), Sym("a"))
	c := NewAtom("p", Var("Y"), Sym("a"))
	d := NewAtom("q", Var("X"), Sym("a"))
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Atom.Equal misbehaves")
	}
	if a.Compare(b) != 0 || a.Compare(c) == 0 || a.Compare(d) >= 0 {
		t.Error("Atom.Compare misbehaves")
	}
	if a.Key() != b.Key() {
		t.Error("equal atoms must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("distinct atoms must not share a key")
	}
	// Keys must distinguish a variable X from a symbol X.
	if NewAtom("p", Var("X")).Key() == NewAtom("p", Sym("X")).Key() {
		t.Error("key must encode term kind")
	}
}

func TestAtomVars(t *testing.T) {
	a := NewAtom("p", Var("X"), Sym("a"), Var("Y"), Var("X"))
	vs := a.Vars(nil)
	want := []Term{Var("X"), Var("Y")}
	if !reflect.DeepEqual(vs, want) {
		t.Errorf("Vars = %v, want %v", vs, want)
	}
	// Appending to an existing list must not duplicate.
	vs = a.Vars([]Term{Var("Y")})
	want = []Term{Var("Y"), Var("X")}
	if !reflect.DeepEqual(vs, want) {
		t.Errorf("Vars with prefix = %v, want %v", vs, want)
	}
}

func TestFormulaBasics(t *testing.T) {
	f := Formula{
		NewAtom("student", Var("X"), Var("Y"), Var("Z")),
		NewAtom(">", Var("Z"), Num(3.7)),
	}
	if got, want := f.String(), "student(X, Y, Z) and Z > 3.7"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (Formula{}).String(); got != "true" {
		t.Errorf("empty formula String = %q, want true", got)
	}
	vs := f.Vars()
	want := []Term{Var("X"), Var("Y"), Var("Z")}
	if !reflect.DeepEqual(vs, want) {
		t.Errorf("Vars = %v, want %v", vs, want)
	}
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone must equal original")
	}
	g[0].Args[0] = Sym("a")
	if f[0].Args[0] != Var("X") {
		t.Error("Clone must deep-copy atom arguments")
	}
}

func TestFormulaSetKey(t *testing.T) {
	p := NewAtom("p", Var("X"))
	q := NewAtom("q", Var("X"))
	if (Formula{p, q}).SetKey() != (Formula{q, p}).SetKey() {
		t.Error("SetKey must be order-insensitive")
	}
	if (Formula{p, q, p}).SetKey() != (Formula{p, q}).SetKey() {
		t.Error("SetKey must be duplication-insensitive")
	}
	if (Formula{p, q}).Key() == (Formula{q, p}).Key() {
		t.Error("Key must be order-sensitive")
	}
	if (Formula{p}).SetKey() == (Formula{q}).SetKey() {
		t.Error("distinct formulas must have distinct SetKeys")
	}
}

func TestRuleBasics(t *testing.T) {
	head := NewAtom("honor", Var("X"))
	body := []Atom{
		NewAtom("student", Var("X"), Var("Y"), Var("Z")),
		NewAtom(">", Var("Z"), Num(3.7)),
	}
	r := NewRule(head, body...)
	if got, want := r.String(), "honor(X) :- student(X, Y, Z), Z > 3.7."; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if r.IsFact() {
		t.Error("rule with body is not a fact")
	}
	f := NewRule(NewAtom("student", Sym("ann"), Sym("math"), Num(3.9)))
	if !f.IsFact() {
		t.Error("ground bodiless rule is a fact")
	}
	if got, want := f.String(), "student(ann, math, 3.9)."; got != want {
		t.Errorf("fact String = %q, want %q", got, want)
	}
	nf := NewRule(NewAtom("p", Var("X")))
	if nf.IsFact() {
		t.Error("bodiless rule with variables is not a fact")
	}
	vs := r.Vars()
	want := []Term{Var("X"), Var("Y"), Var("Z")}
	if !reflect.DeepEqual(vs, want) {
		t.Errorf("Vars = %v, want %v", vs, want)
	}
	if r.Key() == f.Key() {
		t.Error("distinct rules must have distinct keys")
	}
	if !r.Equal(NewRule(head, body...)) {
		t.Error("identically constructed rules must be equal")
	}
}

// --- substitutions ---

func TestSubstLookupWalkBind(t *testing.T) {
	s := NewSubst(2)
	s.Bind(Var("X"), Var("Y"))
	s.Bind(Var("Y"), Sym("a"))
	// Bind keeps the substitution idempotent: X's image is rewritten.
	if got := s.Lookup(Var("X")); got != Sym("a") {
		t.Errorf("Lookup(X) = %v, want a", got)
	}
	if got := s.Walk(Var("X")); got != Sym("a") {
		t.Errorf("Walk(X) = %v, want a", got)
	}
	if got := s.Lookup(Sym("b")); got != Sym("b") {
		t.Error("constants must map to themselves")
	}
	if got := s.Lookup(Var("Q")); got != Var("Q") {
		t.Error("unbound variables must map to themselves")
	}
}

func TestSubstApply(t *testing.T) {
	s := Subst{Var("X"): Sym("ann"), Var("Z"): Num(3.9)}
	a := NewAtom("student", Var("X"), Var("Y"), Var("Z"))
	got := s.Apply(a)
	want := NewAtom("student", Sym("ann"), Var("Y"), Num(3.9))
	if !got.Equal(want) {
		t.Errorf("Apply = %v, want %v", got, want)
	}
	// The original atom must be untouched.
	if !a.Args[0].IsVar() {
		t.Error("Apply must not mutate its input")
	}
	r := NewRule(NewAtom("honor", Var("X")), NewAtom(">", Var("Z"), Num(3.7)))
	rr := s.ApplyRule(r)
	if rr.Head.Args[0] != Sym("ann") || rr.Body[0].Args[0] != Num(3.9) {
		t.Errorf("ApplyRule = %v", rr)
	}
}

func TestSubstRestrictEqualStringClone(t *testing.T) {
	s := Subst{Var("X"): Sym("a"), Var("Y"): Sym("b")}
	if !s.Equal(s.Clone()) {
		t.Error("clone must equal original")
	}
	if s.Equal(Subst{Var("X"): Sym("a")}) {
		t.Error("different substitutions must not be Equal")
	}
	if got, want := s.String(), "{X→a, Y→b}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	c := s.Clone()
	c[Var("X")] = Sym("z")
	if s[Var("X")] != Sym("a") {
		t.Error("Clone must be independent")
	}
}

func TestUnifyBasics(t *testing.T) {
	cases := []struct {
		a, b Atom
		ok   bool
	}{
		{NewAtom("p", Var("X")), NewAtom("p", Sym("a")), true},
		{NewAtom("p", Sym("a")), NewAtom("p", Var("X")), true},
		{NewAtom("p", Var("X")), NewAtom("p", Var("Y")), true},
		{NewAtom("p", Sym("a")), NewAtom("p", Sym("a")), true},
		{NewAtom("p", Sym("a")), NewAtom("p", Sym("b")), false},
		{NewAtom("p", Var("X")), NewAtom("q", Var("X")), false},
		{NewAtom("p", Var("X")), NewAtom("p", Var("X"), Var("Y")), false},
		{NewAtom("p", Var("X"), Var("X")), NewAtom("p", Sym("a"), Sym("b")), false},
		{NewAtom("p", Var("X"), Var("X")), NewAtom("p", Sym("a"), Sym("a")), true},
		{NewAtom("p", Var("X"), Var("Y")), NewAtom("p", Var("Y"), Sym("a")), true},
	}
	for _, c := range cases {
		s, ok := Unify(c.a, c.b, nil)
		if ok != c.ok {
			t.Errorf("Unify(%v, %v) ok = %v, want %v", c.a, c.b, ok, c.ok)
			continue
		}
		if ok && !s.Apply(c.a).Equal(s.Apply(c.b)) {
			t.Errorf("Unify(%v, %v) = %v is not a unifier", c.a, c.b, s)
		}
	}
}

func TestUnifyChained(t *testing.T) {
	// p(X, Y, X) with p(Y, a, Z): X=Y, Y=a ⇒ all of X,Y,Z = a.
	a := NewAtom("p", Var("X"), Var("Y"), Var("X"))
	b := NewAtom("p", Var("Y"), Sym("a"), Var("Z"))
	s, ok := Unify(a, b, nil)
	if !ok {
		t.Fatal("expected unification to succeed")
	}
	for _, v := range []Term{Var("X"), Var("Y"), Var("Z")} {
		if got := s.Walk(v); got != Sym("a") {
			t.Errorf("%v ↦ %v, want a", v, got)
		}
	}
}

func TestUnifyWithBase(t *testing.T) {
	base := Subst{Var("X"): Sym("a")}
	_, ok := Unify(NewAtom("p", Var("X")), NewAtom("p", Sym("b")), base)
	if ok {
		t.Error("base binding X=a must block unification with b")
	}
	s, ok := Unify(NewAtom("p", Var("X")), NewAtom("p", Sym("a")), base)
	if !ok || s.Walk(Var("X")) != Sym("a") {
		t.Error("base binding X=a must allow unification with a")
	}
	if len(base) != 1 {
		t.Error("Unify must not modify base")
	}
}

func TestMatch(t *testing.T) {
	pat := NewAtom("p", Var("X"), Sym("a"), Var("X"))
	if s, ok := Match(pat, NewAtom("p", Sym("b"), Sym("a"), Sym("b")), nil); !ok || s.Walk(Var("X")) != Sym("b") {
		t.Error("Match must bind pattern variables")
	}
	if _, ok := Match(pat, NewAtom("p", Sym("b"), Sym("a"), Sym("c")), nil); ok {
		t.Error("Match must respect repeated variables")
	}
	if _, ok := Match(pat, NewAtom("p", Sym("b"), Sym("z"), Sym("b")), nil); ok {
		t.Error("Match must respect constants in the pattern")
	}
	// One-way: a variable in the target must not be bound.
	if _, ok := Match(NewAtom("p", Sym("a")), NewAtom("p", Var("Y")), nil); ok {
		t.Error("Match must not bind variables of the target")
	}
	// But a pattern variable may map to a target variable.
	if s, ok := Match(NewAtom("p", Var("X")), NewAtom("p", Var("Y")), nil); !ok || s.Walk(Var("X")) != Var("Y") {
		t.Error("pattern variable should match target variable")
	}
}

func TestRenamer(t *testing.T) {
	var rn Renamer
	r := NewRule(NewAtom("p", Var("X"), Var("Y")), NewAtom("q", Var("Y"), Var("Z")))
	v1 := rn.RenameRule(r)
	v2 := rn.RenameRule(r)
	seen := map[Term]bool{}
	for _, v := range append(v1.Vars(), v2.Vars()...) {
		if seen[v] {
			t.Errorf("renamed variable %v reused across variants", v)
		}
		seen[v] = true
	}
	// Structure preserved: renaming is invertible by unification.
	if _, ok := Unify(r.Head, v1.Head, nil); !ok {
		t.Error("renamed head no longer unifies with original")
	}
	// Shared variables stay shared: Y in head and body map to same fresh var.
	if v1.Head.Args[1] != v1.Body[0].Args[0] {
		t.Error("renaming must preserve variable sharing")
	}
	// Names must not snowball: renaming X_3 again yields X_n, not X_3_n.
	f := Var("X_3")
	fresh := rn.Fresh(f.Name())
	if len(fresh.Name()) > len("X_9999") {
		t.Errorf("fresh name %q snowballed", fresh.Name())
	}
}

// TestRenameRuleDoesNotCapture: a rule variable spelled like a fresh name
// is renamed once. X becomes X_1 and X_1 becomes X_2; following X's image
// on to X_2 would merge the two variables.
func TestRenameRuleDoesNotCapture(t *testing.T) {
	var rn Renamer
	r := NewRule(NewAtom("p", Var("X")), NewAtom("q", Var("X_1")), NewAtom("r", Var("X")))
	v := rn.RenameRule(r)
	x, x1 := v.Head.Args[0], v.Body[0].Args[0]
	if x == x1 {
		t.Fatalf("%v renamed to %v: X and X_1 merged", r, v)
	}
	if v.Body[1].Args[0] != x {
		t.Errorf("%v renamed to %v: X's occurrences renamed apart", r, v)
	}
	if x == Var("X") || x1 == Var("X_1") {
		t.Errorf("%v renamed to %v: a variable kept its name", r, v)
	}
}

// TestRenameRuleAllocs: a variant costs one term array for all of its
// atoms and one body formula, and nothing per variable: a fresh
// variable is a number, not a name. A ground rule is its own variant,
// and AppendRule over storage with room allocates nothing.
func TestRenameRuleAllocs(t *testing.T) {
	var rn Renamer
	r := NewRule(NewAtom("p", Var("X"), Var("Y")), NewAtom("q", Var("X"), Str("a")), NewAtom("r", Var("Y"), Var("Z")))
	rn.RenameRule(r)
	if n := testing.AllocsPerRun(200, func() { rn.RenameRule(r) }); n != 2+0 {
		t.Errorf("renaming %v allocates %v times, want 2 + 0", r, n)
	}
	g := NewRule(NewAtom("p", Str("a")), NewAtom("q", Str("a")))
	if n := testing.AllocsPerRun(200, func() { rn.RenameRule(g) }); n != 0 {
		t.Errorf("renaming %v allocates %v times, want 0", g, n)
	}
	terms, atoms := make([]Term, 0, 16), make(Formula, 0, 4)
	if n := testing.AllocsPerRun(200, func() {
		mark := rn.Mark()
		v, ts, as := rn.AppendRule(r, terms, atoms)
		if len(ts) != 6 || len(as) != 2 || v.Body[1].Args[0] != v.Head.Args[1] {
			t.Fatalf("AppendRule(%v) = %v over %d terms and %d atoms", r, v, len(ts), len(as))
		}
		rn.Release(mark)
	}); n != 0 {
		t.Errorf("AppendRule(%v) over storage with room allocates %v times, want 0", r, n)
	}
}

// TestNumberedVar: a renamed variable carries its number in its word. It
// prints base_n, hashes and keys apart from the written variable printed
// alike, and orders as its printed name would.
func TestNumberedVar(t *testing.T) {
	var rn Renamer
	x1, x2 := rn.Fresh("X"), rn.Fresh("X_3")
	if x1.String() != "X_1" || x2.String() != "X_2" || x1.Name() != "X" || x2.Name() != "X" {
		t.Fatalf("fresh variables print %v (%q) and %v (%q)", x1, x1.Name(), x2, x2.Name())
	}
	if x1.Number() != 1 || Var("X_1").Number() != 0 || Sym("a").Number() != 0 {
		t.Errorf("numbers %d, %d, %d", x1.Number(), Var("X_1").Number(), Sym("a").Number())
	}
	written := Var("X_1")
	if x1 == x2 || x1 == written || x1.Compare(written) == 0 || x1 != NumberedVar("X", 1) {
		t.Errorf("X#1 == X#2: %v; X#1 == written X_1: %v", x1 == x2, x1 == written)
	}
	if x1.Hash() == written.Hash() || x1.Hash() != NumberedVar("X", 1).Hash() {
		t.Error("a numbered variable hashes like the written variable printed alike, or unlike itself")
	}
	if NewAtom("p", x1).Key() == NewAtom("p", written).Key() {
		t.Error("a numbered variable keys like the written variable printed alike")
	}
	if string(x1.AppendTo(nil)) != "X_1" || NewAtom("p", x1, x2).String() != "p(X_1, X_2)" {
		t.Errorf("AppendTo: %s", NewAtom("p", x1, x2))
	}
	// Compare orders by printed name, as the names did when they were
	// built: written X_1 < numbered X_1 < X_10 < X_7 < Y_2.
	for i := 0; i < 7; i++ {
		rn.Fresh("X")
	}
	x10 := rn.Fresh("X")
	ordered := []Term{Var("A"), written, x1, x10, NumberedVar("X", 7), NumberedVar("Y", 2), Var("Z")}
	for i := range ordered {
		for j := range ordered {
			if got, want := ordered[i].Compare(ordered[j]), cmp.Compare(i, j); sign(got) != want {
				t.Errorf("Compare(%v, %v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func sign(c int) int { return cmp.Compare(c, 0) }

// --- property-based tests ---

// genAtom builds a random atom over a small vocabulary.
func genAtom(r *rand.Rand) Atom {
	preds := []string{"p", "q", "r"}
	pool := []Term{Var("X"), Var("Y"), Var("Z"), Sym("a"), Sym("b"), Num(1), Num(2)}
	n := r.Intn(4)
	args := make([]Term, n)
	for i := range args {
		args[i] = pool[r.Intn(len(pool))]
	}
	return NewAtom(preds[r.Intn(len(preds))], args...)
}

// TestQuickUnifyIsUnifier: whenever Unify succeeds, applying the result to
// both atoms yields identical atoms (the defining property of a unifier).
func TestQuickUnifyIsUnifier(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genAtom(r), genAtom(r)
		s, ok := Unify(a, b, nil)
		if !ok {
			return true
		}
		return s.Apply(a).Equal(s.Apply(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnifyMostGeneral: any other unifier factors through the MGU.
// We verify a practical consequence: if u unifies a and b, then u also
// unifies mgu(a) with a (i.e. the MGU instance subsumes every unified
// instance via matching).
func TestQuickUnifyMostGeneral(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genAtom(r), genAtom(r)
		mgu, ok := Unify(a, b, nil)
		if !ok {
			return true
		}
		// Build some ground unifier candidate by grounding all vars to a.
		g := NewSubst(4)
		for _, v := range append(a.Vars(nil), b.Vars(nil)...) {
			g[v] = Sym("c")
		}
		ga, gb := g.Apply(a), g.Apply(b)
		if !ga.Equal(gb) {
			return true // grounding isn't a unifier for this pair; nothing to check
		}
		// The MGU instance must match onto the ground instance.
		_, ok = Match(mgu.Apply(a), ga, nil)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnifySymmetric: Unify(a,b) succeeds iff Unify(b,a) succeeds.
func TestQuickUnifySymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genAtom(r), genAtom(r)
		_, ok1 := Unify(a, b, nil)
		_, ok2 := Unify(b, a, nil)
		return ok1 == ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMatchImpliesUnify: a successful match is a successful unification.
func TestQuickMatchImpliesUnify(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genAtom(r), genAtom(r)
		if _, ok := Match(a, b, nil); ok {
			_, ok2 := Unify(a, b, nil)
			return ok2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortStability: Compare induces a deterministic order on atoms.
func TestQuickSortStability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		atoms := make([]Atom, 8)
		for i := range atoms {
			atoms[i] = genAtom(r)
		}
		a := append([]Atom(nil), atoms...)
		b := append([]Atom(nil), atoms...)
		rand.New(rand.NewSource(seed+1)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		sort.Slice(a, func(i, j int) bool { return a[i].Compare(a[j]) < 0 })
		sort.Slice(b, func(i, j int) bool { return b[i].Compare(b[j]) < 0 })
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnifyGround(b *testing.B) {
	x := NewAtom("complete", Sym("ann"), Sym("databases"), Sym("f89"), Num(4))
	y := NewAtom("complete", Sym("ann"), Sym("databases"), Sym("f89"), Num(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Unify(x, y, nil); !ok {
			b.Fatal("unify failed")
		}
	}
}

func BenchmarkUnifyVariables(b *testing.B) {
	x := NewAtom("complete", Var("S"), Var("C"), Var("Sem"), Var("G"))
	y := NewAtom("complete", Sym("ann"), Sym("databases"), Sym("f89"), Num(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Unify(x, y, nil); !ok {
			b.Fatal("unify failed")
		}
	}
}

func BenchmarkSubstApplyRule(b *testing.B) {
	s := Subst{Var("X"): Sym("ann"), Var("Y"): Sym("databases"), Var("Z"): Sym("f89")}
	r := NewRule(
		NewAtom("can_ta", Var("X"), Var("Y")),
		NewAtom("honor", Var("X")),
		NewAtom("complete", Var("X"), Var("Y"), Var("Z"), Var("U")),
		NewAtom(">", Var("U"), Num(3.3)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ApplyRule(r)
	}
}

func BenchmarkRenameRule(b *testing.B) {
	var rn Renamer
	r := NewRule(
		NewAtom("can_ta", Var("X"), Var("Y")),
		NewAtom("honor", Var("X")),
		NewAtom("complete", Var("X"), Var("Y"), Var("Z"), Var("U")),
		NewAtom("taught", Var("V"), Var("Y"), Var("Z"), Var("W")),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rn.RenameRule(r)
	}
}
