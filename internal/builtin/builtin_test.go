package builtin

import (
	"math"
	"testing"

	"kdb/internal/term"
)

func atom(pred string, l, r term.Term) term.Atom { return term.NewAtom(pred, l, r) }

func TestEvalNumbers(t *testing.T) {
	cases := []struct {
		pred string
		l, r float64
		want bool
	}{
		{"=", 1, 1, true}, {"=", 1, 2, false},
		{"!=", 1, 2, true}, {"!=", 1, 1, false},
		{"<", 1, 2, true}, {"<", 2, 1, false}, {"<", 1, 1, false},
		{"<=", 1, 1, true}, {"<=", 1, 2, true}, {"<=", 2, 1, false},
		{">", 2, 1, true}, {">", 1, 2, false},
		{">=", 2, 2, true}, {">=", 1, 2, false},
	}
	for _, c := range cases {
		got, err := Eval(atom(c.pred, term.Num(c.l), term.Num(c.r)))
		if err != nil {
			t.Fatalf("Eval(%v %s %v): %v", c.l, c.pred, c.r, err)
		}
		if got != c.want {
			t.Errorf("Eval(%v %s %v) = %v, want %v", c.l, c.pred, c.r, got, c.want)
		}
	}
}

func TestEvalSymbolsAndStrings(t *testing.T) {
	if ok, _ := Eval(atom("<", term.Sym("apple"), term.Sym("banana"))); !ok {
		t.Error("apple < banana lexicographically")
	}
	if ok, _ := Eval(atom("=", term.Str("x"), term.Str("x"))); !ok {
		t.Error("identical strings are equal")
	}
	// Cross-kind: = false, != true, orders false.
	if ok, _ := Eval(atom("=", term.Num(1), term.Sym("a"))); ok {
		t.Error("1 = a must be false")
	}
	if ok, _ := Eval(atom("!=", term.Num(1), term.Sym("a"))); !ok {
		t.Error("1 != a must be true")
	}
	if ok, _ := Eval(atom("<", term.Num(1), term.Sym("a"))); ok {
		t.Error("1 < a must be false (incomparable)")
	}
	// Symbols vs strings are different kinds.
	if ok, _ := Eval(atom("=", term.Sym("a"), term.Str("a"))); ok {
		t.Error("symbol a and string \"a\" are distinct")
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(term.NewAtom("p", term.Num(1), term.Num(2))); err == nil {
		t.Error("non-comparison must error")
	}
	if _, err := Eval(atom("<", term.Var("X"), term.Num(2))); err == nil {
		t.Error("non-ground comparison must error")
	}
}

func TestSplit(t *testing.T) {
	f := term.Formula{
		term.NewAtom("student", term.Var("X")),
		atom(">", term.Var("Z"), term.Num(3.7)),
		term.NewAtom("enroll", term.Var("X"), term.Sym("db")),
	}
	cmps, ord := Split(f)
	if len(cmps) != 1 || len(ord) != 2 || cmps[0].Pred != ">" {
		t.Errorf("Split = %v | %v", cmps, ord)
	}
}

func TestSatBasics(t *testing.T) {
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	nan := term.Num(math.NaN())
	cases := []struct {
		name string
		conj term.Formula
		want bool
	}{
		{"empty", nil, true},
		{"single", term.Formula{atom("<", x, y)}, true},
		{"strict cycle 2", term.Formula{atom("<", x, y), atom("<", y, x)}, false},
		{"strict cycle 3", term.Formula{atom("<", x, y), atom("<", y, z), atom("<", z, x)}, false},
		{"le cycle ok", term.Formula{atom("<=", x, y), atom("<=", y, x)}, true},
		{"le cycle plus neq", term.Formula{atom("<=", x, y), atom("<=", y, x), atom("!=", x, y)}, false},
		{"le cycle plus strict", term.Formula{atom("<=", x, y), atom("<", y, x)}, false},
		{"eq then lt", term.Formula{atom("=", x, y), atom("<", x, y)}, false},
		{"eq then le", term.Formula{atom("=", x, y), atom("<=", x, y)}, true},
		{"eq neq", term.Formula{atom("=", x, y), atom("!=", x, y)}, false},
		{"self neq", term.Formula{atom("!=", x, x)}, false},
		{"self lt", term.Formula{atom("<", x, x)}, false},
		{"const order ok", term.Formula{atom("<", term.Num(1), term.Num(2))}, true},
		{"const order bad", term.Formula{atom("<", term.Num(2), term.Num(1))}, false},
		{"var between consts", term.Formula{atom("<", term.Num(1), x), atom("<", x, term.Num(2))}, true},
		{"var between equal consts", term.Formula{atom("<", term.Num(1), x), atom("<", x, term.Num(1))}, false},
		{"var eq two consts", term.Formula{atom("=", x, term.Num(1)), atom("=", x, term.Num(2))}, false},
		{"transitive const clash", term.Formula{atom("<=", term.Num(2), x), atom("<=", x, term.Num(1))}, false},
		{"paper gpa", term.Formula{atom(">", x, term.Num(3.7)), atom("<", x, term.Num(3.5))}, false},
		{"paper gpa ok", term.Formula{atom(">", x, term.Num(3.3)), atom("<", x, term.Num(3.5))}, true},
		{"incomparable kinds ordered", term.Formula{atom("<", term.Num(1), x), atom("<", x, term.Sym("a"))}, false},
		{"incomparable kinds eq", term.Formula{atom("=", x, term.Num(1)), atom("=", x, term.Sym("a"))}, false},
		{"incomparable kinds neq ok", term.Formula{atom("=", x, term.Num(1)), atom("!=", x, term.Sym("a"))}, true},
		{"eq const propagates", term.Formula{atom("=", x, term.Num(3)), atom("=", y, x), atom("<", y, term.Num(2))}, false},
		{"ge gt forms", term.Formula{atom(">=", x, term.Num(2)), atom(">", term.Num(3), x)}, true},
		{"symbol order", term.Formula{atom("<", term.Sym("a"), x), atom("<", x, term.Sym("b"))}, true},
		{"symbol order bad", term.Formula{atom("<", term.Sym("b"), x), atom("<", x, term.Sym("a"))}, false},
		// -0 and 0 are two constants, but one value to the comparisons.
		{"eq zero and negative zero", term.Formula{atom("=", x, term.Num(0)), atom("=", x, term.Num(math.Copysign(0, -1)))}, true},
		{"eq zero, neq negative zero", term.Formula{atom("=", x, term.Num(0)), atom("!=", x, term.Num(math.Copysign(0, -1)))}, false},
		// An order atom holds only between values of one kind, never a NaN.
		{"lt nan", term.Formula{atom("<", x, nan)}, false},
		{"nan le nan", term.Formula{atom("<=", nan, nan)}, false},
		{"nan eq nan", term.Formula{atom("=", nan, nan)}, true},
		{"var eq nan ordered", term.Formula{atom("=", x, nan), atom("<=", x, y)}, false},
		{"var ordered against two kinds", term.Formula{atom("<=", x, term.Num(1)), atom("<=", x, term.Sym("a"))}, false},
		{"le self", term.Formula{atom("<=", x, x)}, true},
	}
	for _, c := range cases {
		got, err := Sat(c.conj)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Sat(%v) = %v, want %v", c.name, c.conj, got, c.want)
		}
	}
}

func TestSatRejectsNonComparison(t *testing.T) {
	if _, err := Sat(term.Formula{term.NewAtom("p", term.Var("X"))}); err == nil {
		t.Error("Sat must reject ordinary atoms")
	}
}

func TestImpliesBasics(t *testing.T) {
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	cases := []struct {
		name        string
		alpha, beta term.Formula
		want        bool
	}{
		// X may be a NaN, which no order atom holds for.
		{"reflexive le", nil, term.Formula{atom("<=", x, x)}, false},
		{"reflexive le when ordered", term.Formula{atom("<", x, y)}, term.Formula{atom("<=", x, x)}, true},
		{"reflexive le of a constant", nil, term.Formula{atom("<=", term.Num(3), term.Num(3))}, true},
		{"reflexive eq", nil, term.Formula{atom("=", x, x)}, true},
		{"reflexive lt", nil, term.Formula{atom("<", x, x)}, false},
		{"unconstrained", nil, term.Formula{atom("<", x, y)}, false},
		{"same atom", term.Formula{atom("<", x, y)}, term.Formula{atom("<", x, y)}, true},
		{"lt implies le", term.Formula{atom("<", x, y)}, term.Formula{atom("<=", x, y)}, true},
		{"lt implies neq", term.Formula{atom("<", x, y)}, term.Formula{atom("!=", x, y)}, true},
		{"lt implies flipped gt", term.Formula{atom("<", x, y)}, term.Formula{atom(">", y, x)}, true},
		{"le not lt", term.Formula{atom("<=", x, y)}, term.Formula{atom("<", x, y)}, false},
		{"transitivity", term.Formula{atom("<", x, y), atom("<", y, z)}, term.Formula{atom("<", x, z)}, true},
		{"transitivity mixed", term.Formula{atom("<=", x, y), atom("<", y, z)}, term.Formula{atom("<", x, z)}, true},
		{"eq substitution", term.Formula{atom("=", x, y), atom("<", y, z)}, term.Formula{atom("<", x, z)}, true},
		{"le antisym eq", term.Formula{atom("<=", x, y), atom("<=", y, x)}, term.Formula{atom("=", x, y)}, true},
		{"const tighten", term.Formula{atom(">", x, term.Num(3.7))}, term.Formula{atom(">", x, term.Num(3.3))}, true},
		{"const tighten fail", term.Formula{atom(">", x, term.Num(3.3))}, term.Formula{atom(">", x, term.Num(3.7))}, false},
		{"paper e3", term.Formula{atom(">", x, term.Num(3.7))}, term.Formula{atom(">", x, term.Num(3.7))}, true},
		{"ge from eq const", term.Formula{atom("=", x, term.Num(4))}, term.Formula{atom(">", x, term.Num(3.3))}, true},
		{"neq from consts", term.Formula{atom("=", x, term.Num(1)), atom("=", y, term.Num(2))}, term.Formula{atom("!=", x, y)}, true},
		{"neq from kinds", term.Formula{atom("=", x, term.Num(1)), atom("=", y, term.Sym("a"))}, term.Formula{atom("!=", x, y)}, true},
		{"unsat implies anything", term.Formula{atom("<", x, x)}, term.Formula{atom("<", y, z)}, true},
		{"multi beta", term.Formula{atom("<", x, y), atom("<", y, z)}, term.Formula{atom("<", x, z), atom("<=", x, y)}, true},
		{"multi beta fail", term.Formula{atom("<", x, y)}, term.Formula{atom("<=", x, y), atom("<", y, z)}, false},
		{"ground beta", nil, term.Formula{atom("<", term.Num(1), term.Num(2))}, true},
		{"ground beta false", nil, term.Formula{atom(">", term.Num(1), term.Num(2))}, false},
		{"fresh var in beta", term.Formula{atom("<", x, y)}, term.Formula{atom("<", x, z)}, false},
		// An order atom demands comparable operands: a symbol orders
		// against no number, and a NaN against nothing.
		{"symbol not le number", term.Formula{atom("=", x, term.Sym("a"))}, term.Formula{atom("<=", x, term.Num(5))}, false},
		{"symbol not gt number", term.Formula{atom("=", x, term.Sym("a"))}, term.Formula{atom(">", x, term.Num(5))}, false},
		{"nan not le itself", term.Formula{atom("=", x, term.Num(math.NaN()))}, term.Formula{atom("<=", x, x)}, false},
		{"eq classes ordered", term.Formula{atom("=", x, y), atom("<=", y, term.Num(3))}, term.Formula{atom("<=", x, y)}, true},
		{"eq classes unordered", term.Formula{atom("=", x, y)}, term.Formula{atom("<=", x, y)}, false},
		{"one kind by constants", term.Formula{atom("=", x, term.Sym("a")), atom("=", y, term.Sym("b"))}, term.Formula{atom("<", x, y)}, true},
		{"one kind by a chain", term.Formula{atom("<", x, z), atom("<", y, z)}, term.Formula{atom("<", x, y)}, false},
		{"ordered is no nan", term.Formula{atom("<", x, term.Num(3))}, term.Formula{atom("!=", x, term.Num(math.NaN()))}, true},
	}
	for _, c := range cases {
		got, err := Implies(c.alpha, c.beta)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: Implies(%v ⊢ %v) = %v, want %v", c.name, c.alpha, c.beta, got, c.want)
		}
	}
}

func TestContradicts(t *testing.T) {
	x := term.Var("X")
	alpha := term.Formula{atom(">", x, term.Num(3.7))}
	beta := term.Formula{atom("<", x, term.Num(3.5))}
	if got, _ := Contradicts(alpha, beta); !got {
		t.Error("X>3.7 contradicts X<3.5")
	}
	beta2 := term.Formula{atom("<", x, term.Num(4))}
	if got, _ := Contradicts(alpha, beta2); got {
		t.Error("X>3.7 is consistent with X<4")
	}
	if _, err := Contradicts(term.Formula{term.NewAtom("p", x)}, nil); err == nil {
		t.Error("Contradicts must reject ordinary atoms")
	}
}

func TestEntailsNonComparison(t *testing.T) {
	net, err := Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Entails(term.NewAtom("p", term.Var("X"))); err == nil {
		t.Error("Entails must reject ordinary atoms")
	}
}

// TestSolverAllocs: up to 8 nodes, Sat, Contradicts and Entails decide
// in scratch on the stack and allocate nothing, Compile allocates the
// network it returns, and Reset reuses the network's room.
func TestSolverAllocs(t *testing.T) {
	x, y, z, w := term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")
	// Eight nodes: four variables, four constants.
	conj := term.Formula{
		atom(">", x, term.Num(3.3)), atom("<", x, term.Num(4)), atom("<=", y, x),
		atom("<", z, y), atom("!=", z, term.Num(3.5)), atom("=", w, term.Num(math.Copysign(0, -1))),
	}
	alpha, beta := conj[:3], conj[3:]
	fresh, known := atom(">=", term.Var("V"), term.Num(9)), atom("<", z, term.Num(4))
	net, err := Compile(conj)
	if err != nil || !net.Sat() || net.n != 8 {
		t.Fatalf("Compile(%v): %d nodes, sat %v, %v", conj, net.n, net.Sat(), err)
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func() (bool, error)
	}{
		{"Sat", 0, func() (bool, error) { return Sat(conj) }},
		{"Contradicts", 0, func() (bool, error) { return Contradicts(alpha, beta) }},
		{"Entails over a new variable and constant", 0, func() (bool, error) { return net.Entails(fresh) }},
		{"Entails over the network's terms", 0, func() (bool, error) { return net.Entails(known) }},
		{"Compile", 1, func() (bool, error) {
			net, err := Compile(conj)
			return net.Sat(), err
		}},
		{"Reset", 0, func() (bool, error) { return true, net.Reset(conj) }},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); n > c.max {
			t.Errorf("%s allocates %v times, want at most %v", c.name, n, c.max)
		}
	}
}
