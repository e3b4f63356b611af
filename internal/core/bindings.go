package core

import "kdb/internal/term"

// bindings is the one substitution of a search or of a matching problem:
// a frame. A numbered variable's value sits in a slice at its number,
// and the few variables as written (the user's) sit in a short list.
// Variables are bound in place and a trail remembers what was written:
// a choice point marks the trail, tries, and undoes back to the mark, so
// nothing is cloned per attempt. Bindings may chain (X→Y, Y→c); every
// reader goes through walk, which follows chains.
//
// A frame holds two numbering sources: a Renamer's numbers index slots,
// and the matcher's pattern variables, numbered from patternBase, index
// pattern. Within one frame no two live variables may share a number of
// one source, so every renamed variable a frame meets comes from one
// Renamer.
type bindings struct {
	slots   []term.Term // by number; the zero Term is unbound
	pattern []term.Term // by number - patternBase
	written []binding   // each variable as written with its value
	// trail holds every write since the frame was empty: the variable
	// and the value it had before (the zero Term when it had none).
	trail []binding
}

// binding is a variable with a value: one trail entry, or one entry of
// the written list.
type binding struct{ v, val term.Term }

// patternBase is the first number of the matcher's pattern variables,
// far above any number a Renamer reaches.
const patternBase = 1 << 62

// value returns v's value, and whether it has one.
func (b *bindings) value(v term.Term) (term.Term, bool) {
	var t term.Term
	switch n := v.Number(); {
	case n >= patternBase:
		if i := n - patternBase; i < uint64(len(b.pattern)) {
			t = b.pattern[i]
		}
	case n > 0:
		if n < uint64(len(b.slots)) {
			t = b.slots[n]
		}
	default:
		for i := range b.written {
			if b.written[i].v == v {
				t = b.written[i].val
				break
			}
		}
	}
	return t, t != (term.Term{})
}

// ref returns where v's value lives, making room for it.
func (b *bindings) ref(v term.Term) *term.Term {
	switch n := v.Number(); {
	case n >= patternBase:
		return at(&b.pattern, n-patternBase)
	case n > 0:
		return at(&b.slots, n)
	}
	for i := range b.written {
		if b.written[i].v == v {
			return &b.written[i].val
		}
	}
	b.written = append(b.written, binding{v: v})
	return &b.written[len(b.written)-1].val
}

// at returns the i-th element of *s, growing *s to hold it.
func at(s *[]term.Term, i uint64) *term.Term {
	for uint64(len(*s)) <= i {
		*s = append(*s, term.Term{})
	}
	return &(*s)[i]
}

// walk resolves t through chained bindings. It stops at a variable bound
// to itself, which rebind can leave. A chain visits each bound variable
// once, and every bound variable is on the trail, so a walk longer than
// the trail is a cycle: a bug, reported as a panic rather than a hang.
func (b *bindings) walk(t term.Term) term.Term {
	for steps := 0; t.IsVar(); steps++ {
		v, ok := b.value(t)
		if !ok || v == t {
			return t
		}
		if steps > len(b.trail) {
			panic("core: a cycle of bindings through " + t.String())
		}
		t = v
	}
	return t
}

// reset unbinds every variable, also after a search that stopped midway.
func (b *bindings) reset() {
	clear(b.slots)
	clear(b.pattern)
	b.written, b.trail = b.written[:0], b.trail[:0]
}

// mark returns the point undo rewinds to.
func (b *bindings) mark() int { return len(b.trail) }

// undo takes back every write made since the mark.
func (b *bindings) undo(mark int) {
	for i := len(b.trail) - 1; i >= mark; i-- {
		e := b.trail[i]
		*b.ref(e.v) = e.val
	}
	b.trail = b.trail[:mark]
	if mark == 0 {
		b.written = b.written[:0] // all unbound
	}
}

// bind writes v→t for an unbound variable v.
func (b *bindings) bind(v, t term.Term) {
	b.trail = append(b.trail, binding{v: v})
	*b.ref(v) = t
}

// rebind writes v→t the way Subst.Bind in package term does: every binding whose
// value is v is rewritten to t first, each overwritten value trailed.
// The bound variables are those the trail names.
func (b *bindings) rebind(v, t term.Term) {
	for _, e := range b.trail {
		if r := b.ref(e.v); *r == v {
			b.trail = append(b.trail, binding{e.v, v})
			*r = t
		}
	}
	b.bind(v, t)
}

// unify extends the bindings to a most general unifier of x and y, or
// leaves them as they were. Both sides are walked, so a variable is only
// ever bound at the end of a chain and no cycle forms; the language has
// no function symbols, so no occurs check is needed. A variable of x is
// bound before one of y.
func (b *bindings) unify(x, y term.Atom) bool {
	if x.Pred != y.Pred || len(x.Args) != len(y.Args) {
		return false
	}
	mark := len(b.trail)
	for i := range x.Args {
		s, t := b.walk(x.Args[i]), b.walk(y.Args[i])
		switch {
		case s == t:
		case s.IsVar():
			b.bind(s, t)
		case t.IsVar():
			b.bind(t, s)
		default:
			b.undo(mark)
			return false
		}
	}
	return true
}

// apply appends the atoms of f under the bindings to out, their
// arguments to terms, and returns both extended.
func (b *bindings) apply(out term.Formula, terms []term.Term, f term.Formula) (term.Formula, []term.Term) {
	for _, a := range f {
		from := len(terms)
		for _, t := range a.Args {
			terms = append(terms, b.walk(t))
		}
		out = append(out, term.Atom{Pred: a.Pred, Args: terms[from:len(terms):len(terms)]})
	}
	return out, terms
}
