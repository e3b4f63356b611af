package term

import (
	"slices"
	"sort"
	"strconv"
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

// Renamer generates fresh variable names. The zero value is ready to use;
// a single Renamer must not be shared between goroutines.
type Renamer struct {
	n int
	// RenameRule's scratch: the rule's variables and their fresh images.
	vars, fresh []Term
}

// Fresh returns a new variable guaranteed distinct from all variables the
// renamer has produced. The base name is preserved for readability:
// X becomes X_1, X_2, …. The name is built on the stack, so it is the
// one allocation.
func (r *Renamer) Fresh(base string) Term {
	r.n++
	if i := strings.IndexByte(base, '_'); i > 0 && isDigits(base[i+1:]) {
		// Strip a previous rename suffix so names do not snowball.
		base = base[:i]
	}
	var buf [32]byte
	name := strconv.AppendInt(append(append(buf[:0], base...), '_'), int64(r.n), 10)
	return Var(string(name))
}

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
// The rule's variables and their images live in the renamer's scratch,
// so the variant costs one term array shared by all of its atoms, one
// body formula, and the fresh names.
func (r *Renamer) RenameRule(rule Rule) Rule {
	vars := rule.Head.Vars(r.vars[:0])
	n := len(rule.Head.Args)
	for _, a := range rule.Body {
		vars = a.Vars(vars)
		n += len(a.Args)
	}
	r.vars = vars
	if len(vars) == 0 {
		return rule
	}
	fresh := r.fresh[:0]
	for _, v := range vars {
		fresh = append(fresh, r.Fresh(v.Name()))
	}
	r.fresh = fresh
	terms := make([]Term, n)
	out := Rule{Body: make(Formula, len(rule.Body)), Pos: rule.Pos}
	out.Head, terms = r.renameAtom(rule.Head, terms)
	for i, a := range rule.Body {
		out.Body[i], terms = r.renameAtom(a, terms)
	}
	return out
}

// renameAtom writes the atom's variant into the front of terms and
// returns it with the rest of terms.
func (r *Renamer) renameAtom(a Atom, terms []Term) (Atom, []Term) {
	args := terms[:len(a.Args):len(a.Args)]
	for i, t := range a.Args {
		if t.IsVar() {
			t = r.fresh[slices.Index(r.vars, t)]
		}
		args[i] = t
	}
	return Atom{Pred: a.Pred, Args: args}, terms[len(a.Args):]
}
