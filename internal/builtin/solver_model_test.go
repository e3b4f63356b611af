package builtin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kdb/internal/term"
)

// The model: the map-and-rows network the solver was before it became
// flat, kept verbatim but for its names. It decides over a dense domain
// of one kind at a time and assumes no NaN. TestSolverMatchesModel
// holds the flat network to it.

type mStrength uint8

const (
	mRelNone mStrength = iota // no known path
	mRelLe                    // u ≤ v
	mRelLt                    // u < v
)

// modelNetwork is a compiled conjunction of comparison atoms, supporting
// satisfiability and entailment queries. Build one with Compile; a
// modelNetwork is immutable afterwards and safe for concurrent reads.
type modelNetwork struct {
	nodes  map[term.Term]int // term → node id (pre union-find)
	parent []int             // union-find forest over node ids
	consts []term.Term       // class representative constant (zero Term if none)
	pinned []bool
	n      int

	// dist[u][v] is the strongest known order relation u→v between class
	// representatives, after transitive closure.
	dist [][]mStrength
	// neq records explicit disequalities between class representatives.
	neq map[[2]int]bool

	unsat bool

	// conj retains the source conjunction for entailment queries, which
	// are answered by refutation: α ⊢ β iff unsat(α ∧ ¬β).
	conj term.Formula
}

// Compile builds the constraint network for a conjunction of comparison
// atoms. Non-comparison atoms cause an error. An empty conjunction
// compiles to the trivially satisfiable network.
func modelCompile(conj term.Formula) (*modelNetwork, error) {
	net := &modelNetwork{nodes: make(map[term.Term]int), neq: make(map[[2]int]bool), conj: conj.Clone()}
	type edge struct {
		u, v int
		s    mStrength
	}
	var edges []edge
	var neqPairs [][2]int
	var eqPairs [][2]int
	for _, raw := range conj {
		if !term.IsComparison(raw) {
			return nil, fmt.Errorf("builtin: %v is not a comparison", raw)
		}
		a := modelNormalize(raw)
		u := net.node(a.Args[0])
		v := net.node(a.Args[1])
		switch a.Pred {
		case term.PredEq:
			eqPairs = append(eqPairs, [2]int{u, v})
		case term.PredNe:
			neqPairs = append(neqPairs, [2]int{u, v})
		case term.PredLt:
			edges = append(edges, edge{u, v, mRelLt})
		case term.PredLe:
			edges = append(edges, edge{u, v, mRelLe})
		}
	}
	// Union-find over equalities.
	net.parent = make([]int, net.n)
	for i := range net.parent {
		net.parent[i] = i
	}
	for _, p := range eqPairs {
		net.union(p[0], p[1])
	}
	// Pin classes to constants; two distinct constants in one class is a
	// contradiction (they are distinct Term values, so distinct nodes).
	net.consts = make([]term.Term, net.n)
	net.pinned = make([]bool, net.n)
	for t, id := range net.nodes {
		if t.IsVar() {
			continue
		}
		r := net.find(id)
		if net.pinned[r] && net.consts[r] != t {
			net.unsat = true
		}
		net.pinned[r] = true
		net.consts[r] = t
	}
	// Order edges between class representatives, plus the intrinsic order
	// of pinned constants.
	net.dist = make([][]mStrength, net.n)
	for i := range net.dist {
		net.dist[i] = make([]mStrength, net.n)
	}
	addEdge := func(u, v int, s mStrength) {
		u, v = net.find(u), net.find(v)
		if u == v {
			if s == mRelLt {
				net.unsat = true // u < u
			}
			return
		}
		if net.dist[u][v] < s {
			net.dist[u][v] = s
		}
	}
	for _, e := range edges {
		addEdge(e.u, e.v, e.s)
	}
	for i := 0; i < net.n; i++ {
		if net.find(i) != i || !net.pinned[i] {
			continue
		}
		for j := i + 1; j < net.n; j++ {
			if net.find(j) != j || !net.pinned[j] {
				continue
			}
			cmp, comparable := CompareConst(net.consts[i], net.consts[j])
			if !comparable {
				continue // incomparable constants carry no order edge
			}
			switch {
			case cmp < 0:
				addEdge(i, j, mRelLt)
			case cmp > 0:
				addEdge(j, i, mRelLt)
			}
		}
	}
	// Disequalities between representatives.
	for _, p := range neqPairs {
		u, v := net.find(p[0]), net.find(p[1])
		if u == v {
			net.unsat = true
			continue
		}
		if u > v {
			u, v = v, u
		}
		net.neq[[2]int{u, v}] = true
	}
	net.close()
	net.check()
	return net, nil
}

// node numbers t's node. -0 and 0 are one node: the comparisons order
// numbers by value (CompareConst), though they are two constants.
func (net *modelNetwork) node(t term.Term) int {
	if t.Kind() == term.KindNumber && t.Float() == 0 {
		t = term.Num(0)
	}
	if id, ok := net.nodes[t]; ok {
		return id
	}
	id := net.n
	net.nodes[t] = id
	net.n++
	return id
}

func (net *modelNetwork) find(x int) int {
	for net.parent[x] != x {
		net.parent[x] = net.parent[net.parent[x]]
		x = net.parent[x]
	}
	return x
}

func (net *modelNetwork) union(a, b int) {
	ra, rb := net.find(a), net.find(b)
	if ra != rb {
		net.parent[ra] = rb
	}
}

// close computes the transitive closure of the order relation, keeping
// the strongest mStrength along any path (any strict edge makes the whole
// path strict).
func (net *modelNetwork) close() {
	d := net.dist
	for k := 0; k < net.n; k++ {
		for i := 0; i < net.n; i++ {
			if d[i][k] == mRelNone {
				continue
			}
			for j := 0; j < net.n; j++ {
				if d[k][j] == mRelNone {
					continue
				}
				s := mRelLe
				if d[i][k] == mRelLt || d[k][j] == mRelLt {
					s = mRelLt
				}
				if d[i][j] < s {
					d[i][j] = s
				}
			}
		}
	}
}

// check scans the closed network for contradictions.
func (net *modelNetwork) check() {
	if net.unsat {
		return
	}
	for i := 0; i < net.n; i++ {
		if net.find(i) != i {
			continue
		}
		if net.dist[i][i] == mRelLt {
			net.unsat = true // strict cycle
			return
		}
		for j := 0; j < net.n; j++ {
			if i == j || net.find(j) != j {
				continue
			}
			// u ≤ v and v ≤ u force equality: contradicts a disequality or
			// an order between constants of incomparable kinds.
			forcedEq := net.dist[i][j] != mRelNone && net.dist[j][i] != mRelNone
			if forcedEq {
				// A strict edge inside a ≤-cycle is a strict cycle.
				if net.dist[i][j] == mRelLt || net.dist[j][i] == mRelLt {
					net.unsat = true
					return
				}
				if net.neqRel(i, j) {
					net.unsat = true
					return
				}
				if net.pinned[i] && net.pinned[j] {
					// Distinct constants forced equal.
					net.unsat = true
					return
				}
			}
			// Any order path between constants of incomparable kinds is
			// contradictory: values of different kinds are unordered.
			if net.dist[i][j] != mRelNone && net.pinned[i] && net.pinned[j] {
				if _, comparable := CompareConst(net.consts[i], net.consts[j]); !comparable {
					net.unsat = true
					return
				}
			}
		}
	}
}

func (net *modelNetwork) neqRel(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return net.neq[[2]int{u, v}]
}

// Sat reports whether the compiled conjunction is satisfiable over the
// dense, per-kind-ordered constant domain.
func (net *modelNetwork) Sat() bool { return !net.unsat }

// Entails reports whether the compiled conjunction entails the single
// comparison atom b, decided by refutation: α ⊢ β iff α ∧ ¬β is
// unsatisfiable. The negation of a comparison is again a comparison, so
// the refutation is a single satisfiability test and the decision is
// exact over the dense per-kind domain. An unsatisfiable conjunction
// entails everything.
func (net *modelNetwork) Entails(b term.Atom) (bool, error) {
	if !term.IsComparison(b) {
		return false, fmt.Errorf("builtin: %v is not a comparison", b)
	}
	if net.unsat {
		return true, nil
	}
	neg, err := modelNegate(b)
	if err != nil {
		return false, err
	}
	joint := make(term.Formula, 0, len(net.conj)+1)
	joint = append(joint, net.conj...)
	joint = append(joint, neg)
	refut, err := modelCompile(joint)
	if err != nil {
		return false, err
	}
	return !refut.Sat(), nil
}

// Sat reports whether the conjunction of comparison atoms is satisfiable.
func modelSat(conj term.Formula) (bool, error) {
	net, err := modelCompile(conj)
	if err != nil {
		return false, err
	}
	return net.Sat(), nil
}

// Implies reports whether alpha entails every atom of beta (α ⊢ β).
// Both formulas must consist of comparison atoms only.
func modelImplies(alpha, beta term.Formula) (bool, error) {
	net, err := modelCompile(alpha)
	if err != nil {
		return false, err
	}
	for _, b := range beta {
		ok, err := net.Entails(b)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Contradicts reports whether alpha ∧ beta is unsatisfiable — the paper's
// ¬(α ∧ β) test that discards a candidate knowledge answer (§4).
func modelContradicts(alpha, beta term.Formula) (bool, error) {
	joint := make(term.Formula, 0, len(alpha)+len(beta))
	joint = append(joint, alpha...)
	joint = append(joint, beta...)
	ok, err := modelSat(joint)
	if err != nil {
		return false, err
	}
	return !ok, nil
}

// The differential test: the flat network against the model on seeded
// conjunctions of 1–6 atoms over the six operators, 1–4 variables and
// the constants of one kind per conjunction (numbers with 0 and -0,
// symbols, or strings). Sat, Entails, Implies and Contradicts must agree,
// but for one case the model gets wrong: an order atom holds only
// between comparable values, so α entails it only when α forces its
// operands to be ordered (forcedOrdered) — X <= X fails for a NaN.

var (
	diffOps  = []string{"=", "!=", "<", "<=", ">", ">="}
	diffVars = []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")}
	diffKind = [][]term.Term{
		{term.Num(math.Copysign(0, -1)), term.Num(0), term.Num(1), term.Num(1.5), term.Num(2), term.Num(3), term.Num(4), term.Num(5), term.Num(6), term.Num(7)},
		{term.Sym("a"), term.Sym("b"), term.Sym("c"), term.Sym("d"), term.Sym("e"), term.Sym("f")},
		{term.Str("a"), term.Str("b"), term.Str("c"), term.Str("d")},
	}
)

// diffCase is one generated problem: α, the atoms β asked of its
// network one at a time, and γ, conjoined with α for Contradicts.
type diffCase struct {
	alpha, beta, gamma term.Formula
}

func genDiffCase(r *rand.Rand) diffCase {
	consts := diffKind[r.Intn(len(diffKind))]
	vars := diffVars[:1+r.Intn(len(diffVars))]
	constShare := 1 + r.Intn(3) // in quarters
	pick := func() term.Term {
		if r.Intn(4) < constShare {
			return consts[r.Intn(len(consts))]
		}
		return vars[r.Intn(len(vars))]
	}
	conj := func(n int) term.Formula {
		f := make(term.Formula, n)
		for i := range f {
			f[i] = term.NewAtom(diffOps[r.Intn(len(diffOps))], pick(), pick())
		}
		return f
	}
	c := diffCase{alpha: conj(1 + r.Intn(6)), gamma: conj(1 + r.Intn(6))}
	// β: mostly over α's terms, sometimes a variable or a constant α
	// does not mention.
	var pool []term.Term
	for _, a := range c.alpha {
		pool = append(pool, a.Args...)
	}
	pool = append(pool, term.Var("V"), consts[r.Intn(len(consts))])
	for i := 0; i < 4; i++ {
		c.beta = append(c.beta, term.NewAtom(diffOps[r.Intn(len(diffOps))], pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]))
	}
	return c
}

// diffMismatch returns what the flat network and the model disagree on
// in c, or "".
func diffMismatch(c diffCase) string {
	got, err := Sat(c.alpha)
	want, werr := modelSat(c.alpha)
	if err != nil || werr != nil || got != want {
		return fmt.Sprintf("Sat(%v) = %v, %v; model %v, %v", c.alpha, got, err, want, werr)
	}
	net, err := Compile(c.alpha)
	if err != nil {
		return err.Error()
	}
	model, _ := modelCompile(c.alpha)
	if net.Sat() != model.Sat() {
		return fmt.Sprintf("Compile(%v).Sat() = %v, model %v", c.alpha, net.Sat(), model.Sat())
	}
	entails := func(b term.Atom) bool {
		want, _ := model.Entails(b)
		switch b.Pred {
		case "=", "!=":
			return want
		}
		return want && (!model.Sat() || forcedOrdered(c.alpha, b.Args[0], b.Args[1]))
	}
	for _, b := range c.beta {
		got, err := net.Entails(b)
		if want := entails(b); err != nil || got != want {
			return fmt.Sprintf("%v ⊢ %v = %v, %v; want %v", c.alpha, b, got, err, want)
		}
	}
	if got, want := must(Implies(c.alpha, c.beta[:2])), entails(c.beta[0]) && entails(c.beta[1]); got != want {
		return fmt.Sprintf("Implies(%v, %v) = %v; want %v", c.alpha, c.beta[:2], got, want)
	}
	if got, want := must(Contradicts(c.alpha, c.gamma)), must(modelContradicts(c.alpha, c.gamma)); got != want {
		return fmt.Sprintf("Contradicts(%v, %v) = %v; model %v", c.alpha, c.gamma, got, want)
	}
	return ""
}

// forcedOrdered reports whether α, a conjunction over constants of one
// kind and no NaN, forces u and v to be ordered against each other: the
// classes of u and v each meet an order atom or a constant, and an
// order atom or an equality joins them or each meets a constant.
func forcedOrdered(alpha term.Formula, u, v term.Term) bool {
	parent := map[term.Term]term.Term{}
	var find func(t term.Term) term.Term
	find = func(t term.Term) term.Term {
		t = nodeTerm(t)
		if p, ok := parent[t]; ok && p != t {
			return find(p)
		}
		return t
	}
	for _, a := range alpha {
		if a.Pred != "!=" {
			parent[find(a.Args[0])] = find(a.Args[1])
		}
	}
	ordered := func(t term.Term) (ordered, constant bool) {
		for _, a := range alpha {
			for _, x := range a.Args {
				if find(x) == find(t) {
					ordered = ordered || a.Pred != "=" && a.Pred != "!=" || x.IsConst()
					constant = constant || x.IsConst()
				}
			}
		}
		return ordered || t.IsConst(), constant || t.IsConst()
	}
	ou, cu := ordered(u)
	ov, cv := ordered(v)
	return ou && ov && (find(u) == find(v) || cu && cv)
}

func must(ok bool, err error) bool {
	if err != nil {
		panic(err)
	}
	return ok
}

// shrinkDiff drops atoms from α, β and γ while the case still fails.
func shrinkDiff(c diffCase) diffCase {
	for changed := true; changed; {
		changed = false
		for _, part := range []*term.Formula{&c.alpha, &c.gamma, &c.beta} {
			min := 0
			if part == &c.beta {
				min = 2 // Implies asks β's first two
			}
			for i := 0; i < len(*part) && len(*part) > min; i++ {
				old := *part
				*part = append(old[:i:i], old[i+1:]...)
				if diffMismatch(c) != "" {
					changed = true
					i--
					continue
				}
				*part = old
			}
		}
	}
	return c
}

// diffShapes names the shapes a case exercises, for the coverage check.
func diffShapes(c diffCase) []string {
	var shapes []string
	model, _ := modelCompile(c.alpha)
	if model.Sat() {
		shapes = append(shapes, "α satisfiable")
	} else {
		shapes = append(shapes, "α unsatisfiable")
		for i := 0; i < model.n; i++ {
			if model.find(i) == i && model.dist[i][i] == mRelLt {
				shapes = append(shapes, "strict cycle")
			}
		}
	}
	for i := 0; i < model.n && model.Sat(); i++ {
		for j := 0; j < model.n; j++ {
			if i != j && model.find(i) == i && model.find(j) == j && model.dist[i][j] != mRelNone && model.dist[j][i] != mRelNone {
				shapes = append(shapes, "≤-cycle forces equality")
			}
		}
	}
	kinds := map[term.Kind]string{term.KindNumber: "numbers", term.KindSymbol: "symbols", term.KindString: "strings"}
	zero, negZero := false, false
	for _, a := range append(c.alpha.Clone(), c.gamma...) {
		for _, t := range a.Args {
			if t.IsConst() {
				shapes = append(shapes, kinds[t.Kind()])
			}
			if t.Kind() == term.KindNumber && t.Float() == 0 {
				if math.Signbit(t.Float()) {
					negZero = true
				} else {
					zero = true
				}
			}
		}
	}
	if zero && negZero {
		shapes = append(shapes, "0 and -0")
	}
	if model.n > small {
		shapes = append(shapes, "more than 8 nodes")
	}
	if maxNodes(c.alpha, c.gamma) > small+2 {
		shapes = append(shapes, "conjunction past the stack scratch")
	}
	for _, b := range c.beta {
		entailed, _ := model.Entails(b)
		kind := "order"
		switch b.Pred {
		case "=", "!=":
			kind = b.Pred
		}
		if entailed && model.Sat() {
			shapes = append(shapes, "entailed "+kind)
			if kind == "order" && !forcedOrdered(c.alpha, b.Args[0], b.Args[1]) {
				shapes = append(shapes, "order operands not forced ordered")
			}
		} else if !entailed {
			shapes = append(shapes, "not entailed "+kind)
		}
		for _, t := range b.Args {
			if _, ok := model.nodes[nodeTerm(t)]; !ok {
				shapes = append(shapes, "β adds a term")
			}
		}
	}
	if must(modelContradicts(c.alpha, c.gamma)) {
		shapes = append(shapes, "contradiction")
	}
	return shapes
}

func TestSolverMatchesModel(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 800
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := genDiffCase(rand.New(rand.NewSource(seed)))
		for _, s := range diffShapes(c) {
			seen[s] = true
		}
		if msg := diffMismatch(c); msg != "" {
			small := shrinkDiff(c)
			t.Fatalf("seed %d: %s\nshrunk to α %v, β %v, γ %v: %s", seed, msg, small.alpha, small.beta, small.gamma, diffMismatch(small))
		}
	}
	for _, s := range []string{
		"α satisfiable", "α unsatisfiable", "strict cycle", "≤-cycle forces equality",
		"numbers", "symbols", "strings", "0 and -0", "more than 8 nodes", "conjunction past the stack scratch",
		"entailed order", "entailed =", "entailed !=", "not entailed order", "not entailed =", "not entailed !=",
		"order operands not forced ordered", "β adds a term", "contradiction",
	} {
		if !seen[s] {
			t.Errorf("no generated case has the shape %q", s)
		}
	}
}

// modelNormalize rewrites a comparison atom so its predicate is one of
// =, !=, <, <= (flipping > and >= around), which halves the cases the
// solver must consider. Non-comparison atoms are returned unchanged.
func modelNormalize(a term.Atom) term.Atom {
	if !term.IsComparison(a) {
		return a
	}
	switch a.Pred {
	case term.PredGt:
		return term.NewAtom(term.PredLt, a.Args[1], a.Args[0])
	case term.PredGe:
		return term.NewAtom(term.PredLe, a.Args[1], a.Args[0])
	default:
		return a
	}
}

// modelNegate returns the complementary comparison: ¬(a < b) is (a >= b), etc.
func modelNegate(a term.Atom) (term.Atom, error) {
	if !term.IsComparison(a) {
		return term.Atom{}, fmt.Errorf("builtin: cannot negate non-comparison %v", a)
	}
	l, r := a.Args[0], a.Args[1]
	switch a.Pred {
	case term.PredEq:
		return term.NewAtom(term.PredNe, l, r), nil
	case term.PredNe:
		return term.NewAtom(term.PredEq, l, r), nil
	case term.PredLt:
		return term.NewAtom(term.PredGe, l, r), nil
	case term.PredLe:
		return term.NewAtom(term.PredGt, l, r), nil
	case term.PredGt:
		return term.NewAtom(term.PredLe, l, r), nil
	case term.PredGe:
		return term.NewAtom(term.PredLt, l, r), nil
	}
	return term.Atom{}, fmt.Errorf("builtin: unknown comparison %q", a.Pred)
}

func TestNormalize(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	if got := modelNormalize(atom(">", x, y)); got.Pred != "<" || got.Args[0] != y {
		t.Errorf("modelNormalize(X>Y) = %v", got)
	}
	if got := modelNormalize(atom(">=", x, y)); got.Pred != "<=" || got.Args[0] != y {
		t.Errorf("modelNormalize(X>=Y) = %v", got)
	}
	if got := modelNormalize(atom("<", x, y)); got.Pred != "<" || got.Args[0] != x {
		t.Errorf("modelNormalize(X<Y) = %v", got)
	}
	p := term.NewAtom("p", x)
	if got := modelNormalize(p); !got.Equal(p) {
		t.Errorf("modelNormalize(p(X)) = %v", got)
	}
}

func TestNegate(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	pairs := map[string]string{"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
	for from, to := range pairs {
		got, err := modelNegate(atom(from, x, y))
		if err != nil || got.Pred != to {
			t.Errorf("modelNegate(%s) = %v, %v; want %s", from, got, err, to)
		}
	}
	if _, err := modelNegate(term.NewAtom("p", x)); err == nil {
		t.Error("negating non-comparison must error")
	}
}
