package term

import (
	"slices"
	"sort"
	"strings"
)

// Subst is a substitution: a finite mapping from variables to terms.
// Substitutions produced by Unify are idempotent (no bound variable
// occurs in any binding's value), so Apply never needs to iterate.
//
// The zero value is the empty substitution and is ready to use for
// lookups; use make or New before writing.
type Subst map[Term]Term

// NewSubst returns an empty substitution with room for n bindings.
func NewSubst(n int) Subst { return make(Subst, n) }

// Clone returns an independent copy of the substitution.
func (s Subst) Clone() Subst {
	t := make(Subst, len(s))
	for k, v := range s {
		t[k] = v
	}
	return t
}

// Lookup resolves a term through the substitution. Constants map to
// themselves; unbound variables map to themselves.
func (s Subst) Lookup(t Term) Term {
	if !t.IsVar() {
		return t
	}
	if v, ok := s[t]; ok {
		return v
	}
	return t
}

// Walk resolves a term through possibly chained variable bindings
// (X→Y, Y→c). Unify keeps substitutions idempotent, but substitutions
// composed by callers may chain; Walk is safe for both.
func (s Subst) Walk(t Term) Term {
	for t.IsVar() {
		v, ok := s[t]
		if !ok || v == t {
			return t
		}
		t = v
	}
	return t
}

// Bind adds the binding v→t, normalizing the substitution so it remains
// idempotent: every existing binding whose value is v is rewritten to t.
// v must be a variable and must not already be bound.
func (s Subst) Bind(v, t Term) {
	for k, old := range s {
		if old == v {
			s[k] = t
		}
	}
	s[v] = t
}

// Apply returns the atom with the substitution applied to every argument.
// Chained bindings are followed.
func (s Subst) Apply(a Atom) Atom {
	if len(s) == 0 {
		return a
	}
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = s.Walk(t)
	}
	return out
}

// ApplyFormula applies the substitution to every atom of the formula.
func (s Subst) ApplyFormula(f Formula) Formula {
	if len(s) == 0 {
		return f
	}
	out := make(Formula, len(f))
	for i, a := range f {
		out[i] = s.Apply(a)
	}
	return out
}

// ApplyRule applies the substitution to head and body.
func (s Subst) ApplyRule(r Rule) Rule {
	return Rule{Head: s.Apply(r.Head), Body: s.ApplyFormula(r.Body), Pos: r.Pos}
}

// Equal reports whether two substitutions contain the same bindings.
func (s Subst) Equal(u Subst) bool {
	if len(s) != len(u) {
		return false
	}
	for k, v := range s {
		if w, ok := u[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// String renders the substitution deterministically as {X→a, Y→b}.
func (s Subst) String() string {
	keys := make([]Term, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k.String())
		b.WriteString("→")
		b.WriteString(s[k].String())
	}
	b.WriteByte('}')
	return b.String()
}

// Unify computes a most general unifier of atoms a and b, extending base
// (which may be nil). It returns the extended substitution and true on
// success. base is never modified; on success the result is a fresh
// idempotent substitution. The term language has no function symbols, so
// no occurs check is needed.
func Unify(a, b Atom, base Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	s := base.Clone()
	if s == nil {
		s = NewSubst(len(a.Args))
	}
	for i := range a.Args {
		x := s.Walk(a.Args[i])
		y := s.Walk(b.Args[i])
		switch {
		case x == y:
			// Already identical.
		case x.IsVar():
			s.Bind(x, y)
		case y.IsVar():
			s.Bind(y, x)
		default:
			return nil, false
		}
	}
	return s, true
}

// Match computes a one-way matcher θ such that θ(pattern) == ground,
// extending base. Variables in ground are treated as constants: they may
// be the image of a pattern variable but are never bound themselves.
// It returns the extended substitution and true on success.
func Match(pattern, ground Atom, base Subst) (Subst, bool) {
	if pattern.Pred != ground.Pred || len(pattern.Args) != len(ground.Args) {
		return nil, false
	}
	s := base.Clone()
	if s == nil {
		s = NewSubst(len(pattern.Args))
	}
	for i := range pattern.Args {
		p := s.Walk(pattern.Args[i])
		g := ground.Args[i]
		switch {
		case p == g:
		case p.IsVar():
			s.Bind(p, g)
		default:
			return nil, false
		}
	}
	return s, true
}

// Renamer numbers fresh variables. The zero value is ready to use; a
// single Renamer must not be shared between goroutines.
type Renamer struct {
	n uint64
	// RenameRule's scratch: the rule's variables and their fresh images.
	vars, fresh []Term
}

// Fresh returns a new variable distinct from every variable the renamer
// has produced and from every written variable: the next number, on the
// base name with any previous rename suffix stripped, so names do not
// snowball (X, X_3 and a renamed X all become X_n). It builds no string.
func (r *Renamer) Fresh(base string) Term {
	r.n++
	if i := strings.IndexByte(base, '_'); i > 0 && isDigits(base[i+1:]) {
		base = base[:i]
	}
	return NumberedVar(base, r.n)
}

// Mark returns the count of numbers handed out, for Release.
func (r *Renamer) Mark() uint64 { return r.n }

// Release hands the numbers given out since mark out again. The caller
// guarantees that no variable numbered since mark is still in use: a
// depth-first search releases an expansion's numbers when its choice
// returns, so the numbers live at once stay few.
func (r *Renamer) Release(mark uint64) { r.n = mark }

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// RenameRule returns a variant of the rule with every variable replaced by
// a fresh one, as required before resolving a program rule against a goal
// (the paper's footnote 3). The renaming is simultaneous: each variable
// is looked up once, so a rule variable spelled like a fresh name (X_1)
// is renamed once and never merges with the variable renamed to it.
//
// The variant costs one term array shared by all of its atoms and one
// body formula; a ground rule is its own variant.
func (r *Renamer) RenameRule(rule Rule) Rule {
	out, _, _ := r.AppendRule(rule, nil, nil)
	return out
}

// AppendRule is RenameRule over the caller's storage: the variant's
// arguments are appended to terms and its body atoms to atoms, and both
// are returned extended. Each grows at most once, so after a warm-up a
// caller that truncates them back when the variant dies renames without
// allocating. A ground rule is returned as it is, and the slices
// unchanged.
func (r *Renamer) AppendRule(rule Rule, terms []Term, atoms Formula) (Rule, []Term, Formula) {
	vars := rule.Head.Vars(r.vars[:0])
	n := len(rule.Head.Args)
	for _, a := range rule.Body {
		vars = a.Vars(vars)
		n += len(a.Args)
	}
	r.vars = vars
	if len(vars) == 0 {
		return rule, terms, atoms
	}
	fresh := r.fresh[:0]
	for _, v := range vars {
		fresh = append(fresh, r.Fresh(v.Name()))
	}
	r.fresh = fresh
	terms, atoms = grow(terms, n), grow(atoms, len(rule.Body))
	out := Rule{Pos: rule.Pos}
	out.Head, terms = r.renameAtom(rule.Head, terms)
	from := len(atoms)
	for _, a := range rule.Body {
		var v Atom
		v, terms = r.renameAtom(a, terms)
		atoms = append(atoms, v)
	}
	out.Body = atoms[from:len(atoms):len(atoms)]
	return out, terms, atoms
}

// grow returns s with room for n more elements: s itself, or a copy in
// one allocation that at least doubles its capacity.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make(S, 0, max(len(s)+n, 2*cap(s))), s...)
}

// renameAtom appends the atom's variant's arguments to terms, which has
// room for them, and returns the variant with the extended terms.
func (r *Renamer) renameAtom(a Atom, terms []Term) (Atom, []Term) {
	from := len(terms)
	for _, t := range a.Args {
		if t.IsVar() {
			t = r.fresh[slices.Index(r.vars, t)]
		}
		terms = append(terms, t)
	}
	return Atom{Pred: a.Pred, Args: terms[from:len(terms):len(terms)]}, terms
}
