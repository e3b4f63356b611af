package builtin

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kdb/internal/term"
)

// The brute-force oracle evaluates a conjunction of comparisons with Eval
// under every assignment of the variables to grid values. The numeric
// grid is fine enough (step 0.25 around the constants 1..3) that for up
// to three variables the restricted problem is equisatisfiable with the
// dense one: a chain of strict inequalities between adjacent constants
// needs at most three intermediate points and the grid provides them.
// Beside the numbers a variable may be a NaN, a symbol or a string,
// which no order atom holds between a number and.

var gridPoints = func() []term.Term {
	var pts []term.Term
	for v := 0.0; v <= 4.0; v += 0.25 {
		pts = append(pts, term.Num(v))
	}
	return append(pts, term.Num(math.NaN()), term.Sym("a"), term.Str("a"))
}()

var quickVars = []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z")}

func randComparison(r *rand.Rand) term.Atom {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	pick := func() term.Term {
		if r.Intn(3) == 0 {
			return term.Num(float64(1 + r.Intn(3)))
		}
		return quickVars[r.Intn(len(quickVars))]
	}
	return term.NewAtom(ops[r.Intn(len(ops))], pick(), pick())
}

func randConj(r *rand.Rand, n int) term.Formula {
	f := make(term.Formula, n)
	for i := range f {
		f[i] = randComparison(r)
	}
	return f
}

// groundEval evaluates f with Eval, each variable replaced by its value
// in env.
func groundEval(f term.Formula, env map[term.Term]term.Term) bool {
	for _, a := range f {
		g := term.Atom{Pred: a.Pred, Args: make([]term.Term, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar() {
				t = env[t]
			}
			g.Args[i] = t
		}
		if ok, err := Eval(g); err != nil || !ok {
			return false
		}
	}
	return true
}

// forEachAssignment enumerates the assignments of vars to values; fn
// returning false stops.
func forEachAssignment(vars, values []term.Term, fn func(env map[term.Term]term.Term) bool) {
	env := make(map[term.Term]term.Term, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return fn(env)
		}
		for _, v := range values {
			env[vars[i]] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

func bruteSat(f term.Formula) bool {
	sat := false
	forEachAssignment(quickVars, gridPoints, func(env map[term.Term]term.Term) bool {
		if groundEval(f, env) {
			sat = true
			return false
		}
		return true
	})
	return sat
}

func bruteImplies(alpha, beta term.Formula) bool {
	holds := true
	forEachAssignment(quickVars, gridPoints, func(env map[term.Term]term.Term) bool {
		if groundEval(alpha, env) && !groundEval(beta, env) {
			holds = false
			return false
		}
		return true
	})
	return holds
}

// TestQuickSatMatchesBruteForce cross-checks the solver's satisfiability
// against grid enumeration on random numeric conjunctions.
func TestQuickSatMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		conj := randConj(r, 1+r.Intn(4))
		got, err := Sat(conj)
		if err != nil {
			return false
		}
		want := bruteSat(conj)
		if got != want {
			t.Logf("seed %d: Sat(%v) = %v, brute force = %v", seed, conj, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickImpliesSound: whenever the solver claims α ⊢ β, the brute-force
// oracle agrees (no grid assignment satisfies α but violates β). The
// solver is deliberately incomplete (it may miss entailments), so only
// the sound direction is asserted.
func TestQuickImpliesSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := randConj(r, 1+r.Intn(3))
		beta := randConj(r, 1+r.Intn(2))
		got, err := Implies(alpha, beta)
		if err != nil {
			return false
		}
		if got && !bruteImplies(alpha, beta) {
			t.Logf("seed %d: claimed %v ⊢ %v but brute force disagrees", seed, alpha, beta)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickImpliesSingleAtomComplete: for single-atom β over terms that
// appear in α, the solver's entailment matches brute force exactly. This
// is the case the paper's comparison post-pass relies on ("corresponding
// variables are identical").
func TestQuickImpliesSingleAtomComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := randConj(r, 1+r.Intn(3))
		// Build β from terms appearing in alpha to keep it relevant.
		var pool []term.Term
		for _, a := range alpha {
			pool = append(pool, a.Args...)
		}
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		beta := term.Formula{term.NewAtom(ops[r.Intn(len(ops))], pool[r.Intn(len(pool))], pool[r.Intn(len(pool))])}
		got, err := Implies(alpha, beta)
		if err != nil {
			return false
		}
		want := bruteImplies(alpha, beta)
		if got != want {
			t.Logf("seed %d: Implies(%v ⊢ %v) = %v, brute force = %v", seed, alpha, beta, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickContradictsMatchesBruteForce: the discard test of §4.
func TestQuickContradictsMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := randConj(r, 1+r.Intn(2))
		beta := randConj(r, 1+r.Intn(2))
		got, err := Contradicts(alpha, beta)
		if err != nil {
			return false
		}
		want := !bruteSat(append(alpha.Clone(), beta...))
		if got != want {
			t.Logf("seed %d: Contradicts(%v, %v) = %v, brute force = %v", seed, alpha, beta, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolverSat(b *testing.B) {
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	conj := term.Formula{
		term.NewAtom(">", x, term.Num(3.3)),
		term.NewAtom("<", x, term.Num(4)),
		term.NewAtom("<=", y, x),
		term.NewAtom("<", z, y),
		term.NewAtom("!=", z, term.Num(3.5)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sat(conj); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverImplies(b *testing.B) {
	x := term.Var("X")
	alpha := term.Formula{term.NewAtom(">", x, term.Num(3.7))}
	beta := term.Formula{term.NewAtom(">", x, term.Num(3.3))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Implies(alpha, beta); err != nil {
			b.Fatal(err)
		}
	}
}

// The soundness property over every kind. The constants are numbers
// (0 and -0 among them), a NaN, symbols and a string; the brute force
// assigns the variables grid values of every kind and evaluates with
// Eval. A grid misses values a dense domain has, so only the sound
// direction is checked: what the solver calls unsatisfiable no grid
// assignment satisfies, and what it calls entailed no grid assignment
// refutes. A single atom the grid decides exactly (it holds values below
// and above every constant in each kind), and so must the solver.

var mixedConsts = []term.Term{
	term.Num(0), term.Num(math.Copysign(0, -1)), term.Num(1), term.Num(2), term.Num(5), term.Num(math.NaN()),
	term.Sym("a"), term.Sym("b"), term.Str("a"),
}

var mixedGrid = []term.Term{
	term.Num(math.NaN()), term.Num(-1), term.Num(math.Copysign(0, -1)), term.Num(0), term.Num(0.5), term.Num(1),
	term.Num(1.5), term.Num(2), term.Num(3), term.Num(5), term.Num(6), term.Sym("A"), term.Sym("a"), term.Sym("aa"), term.Sym("b"), term.Sym("c"),
	term.Str(""), term.Str("a"), term.Str("b"),
}

// mixedAtom decodes one comparison from three bytes.
func mixedAtom(op, l, r byte) term.Atom {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	pool := append(append([]term.Term(nil), quickVars...), mixedConsts...)
	return term.NewAtom(ops[int(op)%len(ops)], pool[int(l)%len(pool)], pool[int(r)%len(pool)])
}

// unsound returns how the solver's verdicts on α and β contradict the
// brute force, or "".
func unsound(alpha, beta term.Formula) string {
	satisfies := func(f term.Formula) (env map[term.Term]term.Term) {
		forEachAssignment(quickVars, mixedGrid, func(e map[term.Term]term.Term) bool {
			if groundEval(f, e) {
				env = maps.Clone(e)
				return false
			}
			return true
		})
		return env
	}
	refutes := func(alpha term.Formula, b term.Atom) (env map[term.Term]term.Term) {
		forEachAssignment(quickVars, mixedGrid, func(e map[term.Term]term.Term) bool {
			if groundEval(alpha, e) && !groundEval(term.Formula{b}, e) {
				env = maps.Clone(e)
				return false
			}
			return true
		})
		return env
	}
	for _, a := range append(alpha.Clone(), beta...) {
		if ok, err := Sat(term.Formula{a}); err != nil || ok != (satisfies(term.Formula{a}) != nil) {
			return fmt.Sprintf("Sat(%v) = %v, %v; the grid says %v", a, ok, err, !ok)
		}
	}
	if ok, err := Sat(alpha); err != nil || !ok {
		if env := satisfies(alpha); env != nil {
			return fmt.Sprintf("Sat(%v) = false, %v; %v satisfies it", alpha, err, env)
		}
	}
	net, err := Compile(alpha)
	if err != nil {
		return err.Error()
	}
	for _, b := range beta {
		if ok, err := net.Entails(b); err != nil || ok {
			if env := refutes(alpha, b); env != nil {
				return fmt.Sprintf("%v ⊢ %v = true, %v; %v refutes it", alpha, b, err, env)
			}
		}
	}
	if ok, _ := Implies(alpha, beta); ok {
		for _, b := range beta {
			if env := refutes(alpha, b); env != nil {
				return fmt.Sprintf("Implies(%v, %v) = true; %v refutes %v", alpha, beta, env, b)
			}
		}
	}
	if ok, _ := Contradicts(alpha, beta); ok {
		if env := satisfies(append(alpha.Clone(), beta...)); env != nil {
			return fmt.Sprintf("Contradicts(%v, %v) = true; %v satisfies both", alpha, beta, env)
		}
	}
	return ""
}

// solverSoundRows are the cases the solver answered unsoundly before an
// order atom demanded comparable operands.
var solverSoundRows = []struct{ alpha, beta term.Formula }{
	{term.Formula{term.NewAtom("=", term.Var("X"), term.Sym("a"))}, term.Formula{term.NewAtom("<=", term.Var("X"), term.Num(5))}},
	{term.Formula{term.NewAtom("=", term.Var("X"), term.Sym("a"))}, term.Formula{term.NewAtom(">", term.Var("X"), term.Num(5))}},
	{term.Formula{term.NewAtom("<", term.Var("X"), term.Num(math.NaN()))}, nil},
	{term.Formula{term.NewAtom("<=", term.Num(math.NaN()), term.Num(math.NaN()))}, nil},
	{nil, term.Formula{term.NewAtom("<=", term.Var("X"), term.Var("X"))}},
}

func TestQuickSolverSoundOverEveryKind(t *testing.T) {
	for _, row := range solverSoundRows {
		if msg := unsound(row.alpha, row.beta); msg != "" {
			t.Error(msg)
		}
	}
	n := 400
	if testing.Short() {
		n = 100
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		r := rand.New(rand.NewSource(seed))
		conj := func(n int) term.Formula {
			f := make(term.Formula, n)
			for i := range f {
				f[i] = mixedAtom(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
			}
			return f
		}
		alpha, beta := conj(1+r.Intn(4)), conj(1+r.Intn(2))
		if msg := unsound(alpha, beta); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// FuzzSolver checks the soundness property on conjunctions the fuzzer
// writes: the first byte says how many atoms α has, and every three
// bytes after it are one atom.
func FuzzSolver(f *testing.F) {
	encode := func(alpha, beta term.Formula) []byte {
		pool := append(append([]term.Term(nil), quickVars...), mixedConsts...)
		index := func(t term.Term) byte {
			for i, p := range pool {
				if p == t || t.Kind() == term.KindNumber && p.Kind() == term.KindNumber && math.IsNaN(t.Float()) && math.IsNaN(p.Float()) {
					return byte(i)
				}
			}
			panic(t)
		}
		ops := map[string]byte{"=": 0, "!=": 1, "<": 2, "<=": 3, ">": 4, ">=": 5}
		b := []byte{byte(len(alpha))}
		for _, a := range append(alpha.Clone(), beta...) {
			b = append(b, ops[a.Pred], index(a.Args[0]), index(a.Args[1]))
		}
		return b
	}
	for _, row := range solverSoundRows {
		f.Add(encode(row.alpha, row.beta))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var alpha, beta term.Formula
		for i := 1; i+2 < len(data) && i < 1+3*6; i += 3 {
			a := mixedAtom(data[i], data[i+1], data[i+2])
			if len(alpha) < int(data[0]%5) {
				alpha = append(alpha, a)
			} else {
				beta = append(beta, a)
			}
		}
		if msg := unsound(alpha, beta); msg != "" {
			t.Error(msg)
		}
	})
}
