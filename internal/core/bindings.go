package core

import "kdb/internal/term"

// bindings is the one substitution of a search or of a matching problem.
// Variables are bound in place and a trail remembers what was written:
// a choice point marks the trail, tries, and undoes back to the mark, so
// nothing is cloned per attempt. Bindings may chain (X→Y, Y→c); every
// reader goes through walk, which follows chains.
type bindings struct {
	m     term.Subst
	trail []binding
}

// binding is one trail entry: the variable written and the value it had
// before (the zero Term when it had none).
type binding struct{ v, prev term.Term }

func newBindings() bindings { return bindings{m: term.NewSubst(8)} }

func (b *bindings) walk(t term.Term) term.Term { return b.m.Walk(t) }

// mark returns the point undo rewinds to.
func (b *bindings) mark() int { return len(b.trail) }

// undo takes back every write made since the mark.
func (b *bindings) undo(mark int) {
	for i := len(b.trail) - 1; i >= mark; i-- {
		e := b.trail[i]
		if e.prev == (term.Term{}) {
			delete(b.m, e.v)
		} else {
			b.m[e.v] = e.prev
		}
	}
	b.trail = b.trail[:mark]
}

// bind writes v→t for an unbound variable v.
func (b *bindings) bind(v, t term.Term) {
	b.trail = append(b.trail, binding{v: v})
	b.m[v] = t
}

// rebind writes v→t the way term.Subst.Bind does: every binding whose
// value is v is rewritten to t first, each overwritten value trailed.
func (b *bindings) rebind(v, t term.Term) {
	for k, old := range b.m {
		if old == v {
			b.trail = append(b.trail, binding{k, old})
			b.m[k] = t
		}
	}
	b.bind(v, t)
}

// unify extends the bindings to a most general unifier of x and y, or
// leaves them as they were. Both sides are walked, so a variable is only
// ever bound at the end of a chain and no cycle forms; the language has
// no function symbols, so no occurs check is needed.
func (b *bindings) unify(x, y term.Atom) bool {
	if x.Pred != y.Pred || len(x.Args) != len(y.Args) {
		return false
	}
	mark := len(b.trail)
	for i := range x.Args {
		s, t := b.m.Walk(x.Args[i]), b.m.Walk(y.Args[i])
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
