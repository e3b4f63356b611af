package builtin

import (
	"fmt"

	"kdb/internal/term"
)

// Relation strengths along an order path.
type strength uint8

const (
	relNone strength = iota // no known path
	relLe                   // u ≤ v
	relLt                   // u < v
)

// Network is a compiled conjunction of comparison atoms, supporting
// satisfiability and entailment queries. Build one with Compile; a
// Network is immutable afterwards and safe for concurrent reads.
type Network struct {
	nodes  map[term.Term]int // term → node id (pre union-find)
	parent []int             // union-find forest over node ids
	consts []term.Term       // class representative constant (zero Term if none)
	pinned []bool
	n      int

	// dist[u][v] is the strongest known order relation u→v between class
	// representatives, after transitive closure.
	dist [][]strength
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
func Compile(conj term.Formula) (*Network, error) {
	net := &Network{nodes: make(map[term.Term]int), neq: make(map[[2]int]bool), conj: conj.Clone()}
	type edge struct {
		u, v int
		s    strength
	}
	var edges []edge
	var neqPairs [][2]int
	var eqPairs [][2]int
	for _, raw := range conj {
		if !term.IsComparison(raw) {
			return nil, fmt.Errorf("builtin: %v is not a comparison", raw)
		}
		a := Normalize(raw)
		u := net.node(a.Args[0])
		v := net.node(a.Args[1])
		switch a.Pred {
		case term.PredEq:
			eqPairs = append(eqPairs, [2]int{u, v})
		case term.PredNe:
			neqPairs = append(neqPairs, [2]int{u, v})
		case term.PredLt:
			edges = append(edges, edge{u, v, relLt})
		case term.PredLe:
			edges = append(edges, edge{u, v, relLe})
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
	net.dist = make([][]strength, net.n)
	for i := range net.dist {
		net.dist[i] = make([]strength, net.n)
	}
	addEdge := func(u, v int, s strength) {
		u, v = net.find(u), net.find(v)
		if u == v {
			if s == relLt {
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
				addEdge(i, j, relLt)
			case cmp > 0:
				addEdge(j, i, relLt)
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
func (net *Network) node(t term.Term) int {
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

func (net *Network) find(x int) int {
	for net.parent[x] != x {
		net.parent[x] = net.parent[net.parent[x]]
		x = net.parent[x]
	}
	return x
}

func (net *Network) union(a, b int) {
	ra, rb := net.find(a), net.find(b)
	if ra != rb {
		net.parent[ra] = rb
	}
}

// close computes the transitive closure of the order relation, keeping
// the strongest strength along any path (any strict edge makes the whole
// path strict).
func (net *Network) close() {
	d := net.dist
	for k := 0; k < net.n; k++ {
		for i := 0; i < net.n; i++ {
			if d[i][k] == relNone {
				continue
			}
			for j := 0; j < net.n; j++ {
				if d[k][j] == relNone {
					continue
				}
				s := relLe
				if d[i][k] == relLt || d[k][j] == relLt {
					s = relLt
				}
				if d[i][j] < s {
					d[i][j] = s
				}
			}
		}
	}
}

// check scans the closed network for contradictions.
func (net *Network) check() {
	if net.unsat {
		return
	}
	for i := 0; i < net.n; i++ {
		if net.find(i) != i {
			continue
		}
		if net.dist[i][i] == relLt {
			net.unsat = true // strict cycle
			return
		}
		for j := 0; j < net.n; j++ {
			if i == j || net.find(j) != j {
				continue
			}
			// u ≤ v and v ≤ u force equality: contradicts a disequality or
			// an order between constants of incomparable kinds.
			forcedEq := net.dist[i][j] != relNone && net.dist[j][i] != relNone
			if forcedEq {
				// A strict edge inside a ≤-cycle is a strict cycle.
				if net.dist[i][j] == relLt || net.dist[j][i] == relLt {
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
			if net.dist[i][j] != relNone && net.pinned[i] && net.pinned[j] {
				if _, comparable := CompareConst(net.consts[i], net.consts[j]); !comparable {
					net.unsat = true
					return
				}
			}
		}
	}
}

func (net *Network) neqRel(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return net.neq[[2]int{u, v}]
}

// Sat reports whether the compiled conjunction is satisfiable over the
// dense, per-kind-ordered constant domain.
func (net *Network) Sat() bool { return !net.unsat }

// Entails reports whether the compiled conjunction entails the single
// comparison atom b, decided by refutation: α ⊢ β iff α ∧ ¬β is
// unsatisfiable. The negation of a comparison is again a comparison, so
// the refutation is a single satisfiability test and the decision is
// exact over the dense per-kind domain. An unsatisfiable conjunction
// entails everything.
func (net *Network) Entails(b term.Atom) (bool, error) {
	if !term.IsComparison(b) {
		return false, fmt.Errorf("builtin: %v is not a comparison", b)
	}
	if net.unsat {
		return true, nil
	}
	neg, err := Negate(b)
	if err != nil {
		return false, err
	}
	joint := make(term.Formula, 0, len(net.conj)+1)
	joint = append(joint, net.conj...)
	joint = append(joint, neg)
	refut, err := Compile(joint)
	if err != nil {
		return false, err
	}
	return !refut.Sat(), nil
}

// Sat reports whether the conjunction of comparison atoms is satisfiable.
func Sat(conj term.Formula) (bool, error) {
	net, err := Compile(conj)
	if err != nil {
		return false, err
	}
	return net.Sat(), nil
}

// Implies reports whether alpha entails every atom of beta (α ⊢ β).
// Both formulas must consist of comparison atoms only.
func Implies(alpha, beta term.Formula) (bool, error) {
	net, err := Compile(alpha)
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
func Contradicts(alpha, beta term.Formula) (bool, error) {
	joint := make(term.Formula, 0, len(alpha)+len(beta))
	joint = append(joint, alpha...)
	joint = append(joint, beta...)
	ok, err := Sat(joint)
	if err != nil {
		return false, err
	}
	return !ok, nil
}
