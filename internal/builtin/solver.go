package builtin

import (
	"fmt"

	"kdb/internal/term"
)

// cell is one entry of the order closure between two class
// representatives: the strength of the strongest known path from the
// row's class to the column's, and a bit for a disequality between them.
type cell uint8

const (
	relNone cell = iota // no known path
	relLe               // u ≤ v
	relLt               // u < v

	relMask cell = 3
	neqBit  cell = 4
)

// small is the number of nodes a network keeps inline, and that Sat,
// Contradicts and Entails decide in scratch on the stack.
const small = 8

// op is a normalized comparison: > and >= are flipped to < and <=.
type op uint8

const (
	opEq op = iota
	opNe
	opLt
	opLe
)

// normalized returns the comparison atom a as its normalized operator
// and operands, or ok false when a is not a comparison.
func normalized(a term.Atom) (o op, l, r term.Term, ok bool) {
	if !term.IsComparison(a) {
		return 0, l, r, false
	}
	l, r = a.Args[0], a.Args[1]
	switch a.Pred {
	case term.PredEq:
		return opEq, l, r, true
	case term.PredNe:
		return opNe, l, r, true
	case term.PredLt:
		return opLt, l, r, true
	case term.PredLe:
		return opLe, l, r, true
	case term.PredGt:
		return opLt, r, l, true
	default: // term.PredGe
		return opLe, r, l, true
	}
}

// slot is one node of a network: a term, and for a class
// representative what its class knows.
type slot struct {
	term term.Term // -0 as 0: the comparisons order numbers by value
	rep  int32     // the class representative (a union-find parent while building)
	pin  int32     // representative: the node of the class's constant, or -1
	// comp is a representative's parent in the forest of order
	// components: classes an order atom joins must hold values of one
	// ordered kind. ordered marks a component root an order atom
	// touches.
	comp    int32
	ordered bool
}

// state is a network's nodes and order closure over room the caller
// provides: len(slots) nodes at most, and a stride of len(slots) in
// dist. Its slices are never reassigned, so a state over arrays on the
// caller's stack keeps them there.
type state struct {
	n     int
	unsat bool
	slots []slot
	dist  []cell
}

// Network is a compiled conjunction of comparison atoms, supporting
// satisfiability and entailment queries. Build one with Compile, or
// compile into one with Reset; a Network is immutable afterwards and
// safe for concurrent reads.
//
// Its nodes are a short list of terms, found by a linear scan, and its
// order closure one n×n byte array whose cells also carry the
// disequalities. A network of up to 8 nodes lives in one allocation.
type Network struct {
	state
	inline struct {
		slots [small]slot
		dist  [small * small]cell
	}
}

// Compile builds the constraint network for a conjunction of comparison
// atoms. Non-comparison atoms cause an error. An empty conjunction
// compiles to the trivially satisfiable network.
func Compile(conj term.Formula) (*Network, error) {
	net := new(Network)
	if err := net.Reset(conj); err != nil {
		return nil, err
	}
	return net, nil
}

// Reset compiles conj into net in place of what it held, reusing its
// room: a network reset over and over allocates only when a conjunction
// needs more nodes than any before it.
func (net *Network) Reset(conj term.Formula) error {
	n := maxNodes(conj, nil)
	if cap(net.slots) == 0 {
		net.slots, net.dist = net.inline.slots[:], net.inline.dist[:]
	}
	if n > cap(net.slots) {
		net.slots, net.dist = make([]slot, n), make([]cell, n*n)
	}
	net.slots, net.dist = net.slots[:cap(net.slots)], net.dist[:cap(net.dist)]
	return net.build(conj, nil)
}

// maxNodes bounds the nodes of the comparison atoms of a and b: exactly
// when two per atom would not fit in small.
func maxNodes(a, b term.Formula) int {
	if n := 2 * (len(a) + len(b)); n <= small {
		return n
	}
	var seen [2 * small]term.Term
	n := 0
	for _, f := range [2]term.Formula{a, b} {
		for _, at := range f {
			if !term.IsComparison(at) {
				continue
			}
		args:
			for _, t := range at.Args {
				t = nodeTerm(t)
				if n < len(seen) {
					for _, s := range seen[:n] {
						if s == t {
							continue args
						}
					}
					seen[n] = t
				}
				n++
			}
		}
	}
	if n > len(seen) {
		return 2 * (len(a) + len(b))
	}
	return n
}

// nodeTerm is the node a term is: -0 and 0 are one node, since the
// comparisons order numbers by value (CompareConst), though they are two
// constants.
func nodeTerm(t term.Term) term.Term {
	if t.Kind() == term.KindNumber && t.Float() == 0 {
		return term.Num(0)
	}
	return t
}

// scratch is the room of a state on the stack: small nodes, and two
// more for the terms an entailment query may add.
type scratch struct {
	slots [small + 2]slot
	dist  [(small + 2) * (small + 2)]cell
}

// room returns a state over sc with room for n nodes, or over the heap
// when sc has too little.
func (sc *scratch) room(n int) state {
	if n <= len(sc.slots) {
		return state{slots: sc.slots[:n], dist: sc.dist[:n*n]}
	}
	return state{slots: make([]slot, n), dist: make([]cell, n*n)}
}

// build compiles the comparison atoms of a and then b into st: the
// classes of the equalities, each pinned to its constant, then the
// order edges and disequalities between representatives, closed, and
// checked.
func (st *state) build(a, b term.Formula) error {
	st.n, st.unsat = 0, false
	for _, f := range [2]term.Formula{a, b} {
		for _, at := range f {
			o, l, r, ok := normalized(at)
			if !ok {
				return fmt.Errorf("builtin: %v is not a comparison", at)
			}
			u, v := st.node(l), st.node(r)
			if o == opEq {
				st.union(u, v)
			}
		}
	}
	// Pin classes to constants: two distinct constants in one class is a
	// contradiction (they are distinct nodes).
	for i := 0; i < st.n; i++ {
		r := st.find(i)
		st.slots[i].rep = r
		if st.slots[i].term.IsVar() {
			continue
		}
		if p := st.slots[r].pin; p >= 0 && int(p) != i {
			st.unsat = true
		}
		st.slots[r].pin = int32(i)
	}
	m := len(st.slots)
	for i := 0; i < st.n; i++ {
		clear(st.dist[i*m : i*m+st.n])
	}
	for _, f := range [2]term.Formula{a, b} {
		for _, at := range f {
			o, l, r, _ := normalized(at)
			st.constrain(o, st.rep(l), st.rep(r))
		}
	}
	// The intrinsic order of pinned constants.
	for i := 0; i < st.n; i++ {
		if int(st.slots[i].rep) == i && st.slots[i].pin >= 0 {
			st.orderConst(int32(i), i+1)
		}
	}
	st.check()
	return nil
}

// node numbers t's node, adding it when it is new. A new node is a class
// of its own, pinned when it is a constant.
func (st *state) node(t term.Term) int32 {
	t = nodeTerm(t)
	for i := 0; i < st.n; i++ {
		if st.slots[i].term == t {
			return int32(i)
		}
	}
	i := int32(st.n)
	st.slots[i] = slot{term: t, rep: i, pin: -1, comp: i}
	if t.IsConst() {
		st.slots[i].pin = i
	}
	st.n++
	return i
}

// rep returns the class representative of t's node, which must exist.
func (st *state) rep(t term.Term) int32 { return st.slots[st.node(t)].rep }

func (st *state) find(x int) int32 {
	for int(st.slots[x].rep) != x {
		p := st.slots[x].rep
		st.slots[x].rep = st.slots[p].rep
		x = int(p)
	}
	return int32(x)
}

func (st *state) union(a, b int32) {
	ra, rb := st.find(int(a)), st.find(int(b))
	if ra != rb {
		st.slots[ra].rep = rb
	}
}

// constrain adds the normalized comparison u o v between representatives
// to the closed network, keeping it closed.
func (st *state) constrain(o op, u, v int32) {
	switch o {
	case opNe:
		if u == v {
			st.unsat = true
			return
		}
		m := int32(len(st.slots))
		st.dist[u*m+v] |= neqBit
		st.dist[v*m+u] |= neqBit
	case opLt, opLe:
		st.join(u, v, true)
		s := relLe
		if o == opLt {
			s = relLt
		}
		st.addEdge(u, v, s)
	}
}

// root returns the root of representative x's order component.
func (st *state) root(x int32) int32 {
	for st.slots[x].comp != x {
		p := st.slots[x].comp
		st.slots[x].comp = st.slots[p].comp
		x = p
	}
	return x
}

// join merges the order components of representatives u and v, marking
// the merged one ordered when an order atom joins them.
func (st *state) join(u, v int32, order bool) {
	ru, rv := st.root(u), st.root(v)
	ordered := order || st.slots[ru].ordered || st.slots[rv].ordered
	st.slots[ru].comp = rv
	st.slots[rv].ordered = ordered
}

// comparable reports whether the network forces the values of the
// classes of representatives u and v to be ordered against each other:
// each is ordered (an order atom touches its component, or it is pinned
// to a constant that is no NaN), and they share a component or are
// pinned to constants of one kind.
func (st *state) comparable(u, v int32) bool {
	ru, rv := st.root(u), st.root(v)
	ku, ou := st.ordering(ru)
	kv, ov := st.ordering(rv)
	if !ou || !ov {
		return false
	}
	if ru == rv {
		return true
	}
	_, ok := CompareConst(ku, kv) // false unless both are constants
	return ok
}

// ordering returns a constant pinned in the component rooted at c, if
// any, and whether the component's values are ordered.
func (st *state) ordering(c int32) (k term.Term, ordered bool) {
	for i := 0; i < st.n; i++ {
		if s := st.slots[i]; int(s.rep) == i && s.pin >= 0 && st.root(int32(i)) == c {
			k = st.slots[s.pin].term
			break
		}
	}
	if st.slots[c].ordered {
		return k, true
	}
	_, ordered = CompareConst(k, k) // false for a NaN, and for no constant
	return k, ordered
}

// orderConst adds the order between the pinned representative c and
// every other pinned representative from node from on whose constant
// its own is comparable with.
func (st *state) orderConst(c int32, from int) {
	k := st.slots[st.slots[c].pin].term
	for j := from; j < st.n; j++ {
		s := st.slots[j]
		if int(s.rep) != j || s.pin < 0 || int32(j) == c {
			continue
		}
		cmp, comparable := CompareConst(k, st.slots[s.pin].term)
		switch {
		case !comparable:
		case cmp < 0:
			st.addEdge(c, int32(j), relLt)
		case cmp > 0:
			st.addEdge(int32(j), c, relLt)
		}
	}
}

// addEdge adds u → v of strength s to the closed order relation and
// closes it again: every path the edge opens, i → u → v → j, is known
// at the strongest strength along it (one strict step makes it strict).
func (st *state) addEdge(u, v int32, s cell) {
	if u == v {
		if s == relLt {
			st.unsat = true // u < u
		}
		return
	}
	m := len(st.slots)
	d := st.dist
	if d[int(u)*m+int(v)]&relMask >= s {
		return
	}
	for i := 0; i < st.n; i++ {
		if int(st.slots[i].rep) != i {
			continue
		}
		into := relLe // the empty path from u to itself
		if i != int(u) {
			if into = d[i*m+int(u)] & relMask; into == relNone {
				continue
			}
		}
		row := d[i*m : i*m+st.n]
		for j := 0; j < st.n; j++ {
			if int(st.slots[j].rep) != j {
				continue
			}
			out := relLe
			if j != int(v) {
				if out = d[int(v)*m+j] & relMask; out == relNone {
					continue
				}
			}
			c := s
			if into == relLt || out == relLt {
				c = relLt
			}
			if row[j]&relMask < c {
				row[j] = row[j]&^relMask | c
			}
		}
	}
}

// check scans the closed network for contradictions.
func (st *state) check() {
	if st.unsat {
		return
	}
	m := len(st.slots)
	for i := 0; i < st.n; i++ {
		si := st.slots[i]
		if int(si.rep) != i {
			continue
		}
		for j := 0; j < st.n; j++ {
			sj := st.slots[j]
			if i == j || int(sj.rep) != j {
				continue
			}
			fwd, back := st.dist[i*m+j], st.dist[j*m+i]&relMask
			if fwd&relMask == relNone {
				continue
			}
			// u ≤ v and v ≤ u force equality: contradicts a strict step on
			// the cycle, a disequality, or two distinct constants. (A strict
			// cycle through one class alone is u < u, which addEdge refuses.)
			if back != relNone && (fwd&relMask == relLt || back == relLt || fwd&neqBit != 0 || si.pin >= 0 && sj.pin >= 0) {
				st.unsat = true
				return
			}
		}
		// An ordered component holds values of one kind and no NaN: its
		// constants must be comparable, each with itself too. (Every order
		// path between two constants runs through ordered components and
		// the intrinsic order, so this also refuses such a path between
		// constants of two kinds.)
		if si.pin < 0 || !st.slots[st.root(int32(i))].ordered {
			continue
		}
		for j := i; j < st.n; j++ {
			sj := st.slots[j]
			if int(sj.rep) != j || sj.pin < 0 || st.root(int32(j)) != st.root(int32(i)) {
				continue
			}
			if _, ok := CompareConst(st.slots[si.pin].term, st.slots[sj.pin].term); !ok {
				st.unsat = true
				return
			}
		}
	}
}

// Sat reports whether the compiled conjunction is satisfiable over the
// dense, per-kind-ordered constant domain.
func (net *Network) Sat() bool { return !net.unsat }

// Entails reports whether the compiled conjunction entails the single
// comparison atom b, decided by refutation: α ⊢ β iff α ∧ ¬β is
// unsatisfiable. ¬(u = v) is u != v and back; ¬(u < v) is v <= u or u
// and v incomparable, so α entails an order atom only when it forces
// its operands into one ordered kind. The refutation adds one
// constraint to a copy of the closed network (on the stack, for up to 8
// nodes) and checks it, building no formula and allocating nothing: the
// decision is exact over the dense per-kind domain. An unsatisfiable
// conjunction entails everything.
func (net *Network) Entails(b term.Atom) (bool, error) {
	o, l, r, ok := normalized(b)
	if !ok {
		return false, fmt.Errorf("builtin: %v is not a comparison", b)
	}
	if net.unsat {
		return true, nil
	}
	var sc scratch
	st := sc.room(net.n + 2)
	st.copyFrom(&net.state)
	u, v := st.node(l), st.node(r)
	for _, x := range [2]int32{u, v} {
		if int(x) >= net.n && st.slots[x].pin >= 0 {
			st.orderConst(x, 0)
		}
	}
	u, v = st.slots[u].rep, st.slots[v].rep
	switch o {
	case opEq: // ¬: u != v
		st.constrain(opNe, u, v)
	case opNe: // ¬: u = v, the two classes forced equal
		st.join(u, v, false)
		st.addEdge(u, v, relLe)
		st.addEdge(v, u, relLe)
	case opLt, opLe:
		// ¬(u < v) is v <= u or the two incomparable: the network must
		// refute both.
		if !st.comparable(u, v) {
			return false, nil
		}
		if o == opLt {
			st.constrain(opLe, v, u)
		} else {
			st.constrain(opLt, v, u)
		}
	}
	st.check()
	return st.unsat, nil
}

// copyFrom copies the closed network src into st, which has room for
// at least as many nodes.
func (st *state) copyFrom(src *state) {
	st.n, st.unsat = src.n, src.unsat
	copy(st.slots, src.slots[:src.n])
	m, sm := len(st.slots), len(src.slots)
	for i := 0; i < src.n; i++ {
		copy(st.dist[i*m:i*m+m], src.dist[i*sm:i*sm+src.n])
		clear(st.dist[i*m+src.n : i*m+m])
	}
	for i := src.n; i < m; i++ {
		clear(st.dist[i*m : i*m+m])
	}
}

// Sat reports whether the conjunction of comparison atoms is satisfiable.
func Sat(conj term.Formula) (bool, error) {
	return sat(conj, nil)
}

// sat decides the conjunction of a and b in scratch on the stack.
func sat(a, b term.Formula) (bool, error) {
	var sc scratch
	st := sc.room(maxNodes(a, b))
	if err := st.build(a, b); err != nil {
		return false, err
	}
	return !st.unsat, nil
}

// Implies reports whether alpha entails every atom of beta (α ⊢ β).
// Both formulas must consist of comparison atoms only.
func Implies(alpha, beta term.Formula) (bool, error) {
	net, err := Compile(alpha)
	if err != nil {
		return false, err
	}
	return net.EntailsAll(beta)
}

// EntailsAll reports whether the compiled conjunction entails every atom
// of beta.
func (net *Network) EntailsAll(beta term.Formula) (bool, error) {
	for _, b := range beta {
		ok, err := net.Entails(b)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Contradicts reports whether alpha ∧ beta is unsatisfiable — the paper's
// ¬(α ∧ β) test that discards a candidate knowledge answer (§4).
func Contradicts(alpha, beta term.Formula) (bool, error) {
	ok, err := sat(alpha, beta)
	if err != nil {
		return false, err
	}
	return !ok, nil
}
