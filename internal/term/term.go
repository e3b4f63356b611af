// Package term implements the first-order term language of the paper
// "Querying Database Knowledge" (Motro & Yuan, SIGMOD 1990), Section 2.1:
// constants, variables, atomic formulas (atoms), Horn-clause rules, and
// positive formulas (conjunctions of atoms), together with substitutions,
// unification, one-way matching, and variable renaming.
//
// The language is function-free (Datalog): the only terms are constants
// and variables. Following the paper's convention, a variable name begins
// with an upper-case letter and a symbolic constant with a lower-case
// letter; numeric and quoted-string constants are also supported because
// the paper's example database compares grade-point averages.
//
// A Term is a value of 32 bytes, and two terms are interchangeable exactly
// when they are ==-equal. A constant carries an identity word (Hash):
// a number's bit pattern, or the hash of a symbol's or a string's text,
// computed once when the term is built. So == tells numbers apart by
// their bits, as the storage codec does (0 and -0 are two constants, and
// a NaN equals itself), and it compares two terms' words before their
// texts.
//
// A variable's word is its number: 0 for a variable as written, and n
// for the n-th variable a Renamer made. A numbered variable keeps the
// base name it was renamed from and prints as base_n (X_7), yet it is
// never == to a written variable of that spelling, so renaming a rule
// apart builds no name.
package term

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic type of a Term.
type Kind uint8

const (
	// KindVar is a logical variable.
	KindVar Kind = iota
	// KindSymbol is an uninterpreted constant such as `databases`.
	KindSymbol
	// KindNumber is a numeric constant such as `3.7`.
	KindNumber
	// KindString is a quoted string constant such as `"Susan B."`.
	KindString
)

// Term is a constant or a variable. Terms are immutable values; two terms
// are interchangeable exactly when they are == comparable-equal.
type Term struct {
	kind Kind
	// name holds the variable name, symbol text, or string contents.
	name string
	// word is a number's bit pattern, the seeded hash of a symbol's or a
	// string's name, and a variable's number (zero as written).
	word uint64
}

// seed keys every text hash, and every number's hash (Hash). It is drawn
// once per process, so no hash outlives the process.
var seed = maphash.MakeSeed()

// CollideHook, when a test sets it, replaces the word of every symbol and
// string built from then on with its image, so that a constant or
// two-valued word puts distinct texts on one word. It is nil outside
// tests.
var CollideHook func(uint64) uint64

// textWord is the word of a symbol or a string named s.
func textWord(s string) uint64 {
	w := maphash.String(seed, s)
	if CollideHook != nil {
		return CollideHook(w)
	}
	return w
}

// Var returns a variable term with the given name. Variable names are
// nonempty and by convention begin with an upper-case letter or '_',
// but the constructor does not enforce the convention: the parser does.
func Var(name string) Term { return Term{kind: KindVar, name: name} }

// NumberedVar returns the variable named base that carries the number n
// (n > 0): what a Renamer returns as its n-th fresh variable. It prints
// as base_n, and it is == only to a variable of the same base and number.
func NumberedVar(base string, n uint64) Term { return Term{kind: KindVar, name: base, word: n} }

// Sym returns a symbolic constant.
func Sym(name string) Term { return Term{kind: KindSymbol, name: name, word: textWord(name)} }

// Num returns a numeric constant.
func Num(v float64) Term { return Term{kind: KindNumber, word: math.Float64bits(v)} }

// Str returns a string constant.
func Str(s string) Term { return Term{kind: KindString, name: s, word: textWord(s)} }

// Kind reports the kind of the term.
func (t Term) Kind() Kind { return t.kind }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.kind == KindVar }

// IsConst reports whether the term is any constant.
func (t Term) IsConst() bool { return t.kind != KindVar }

// Name returns the variable name, symbol text, or string contents.
// It is meaningless for numbers. A numbered variable's name is its base:
// X for the variable printed X_7.
func (t Term) Name() string { return t.name }

// Number returns a variable's number: 0 for a variable as written, and
// for any constant.
func (t Term) Number() uint64 {
	if t.kind != KindVar {
		return 0
	}
	return t.word
}

// Float returns the numeric value of a KindNumber term, and 0 for any
// other term.
func (t Term) Float() float64 {
	if t.kind != KindNumber {
		return 0
	}
	return math.Float64frombits(t.word)
}

// Hash returns the term's hash, equal for ==-equal terms: the word of a
// symbol or a string, and the seeded hash of a number's bits or of a
// variable's name, mixed with its number. The seed is drawn per process: a hash is never
// written to disk or shown to a client, and nothing is ordered by it.
func (t Term) Hash() uint64 {
	if t.kind == KindSymbol || t.kind == KindString {
		return t.word
	}
	return t.hashSlow()
}

func (t Term) hashSlow() uint64 {
	if t.kind == KindNumber {
		return maphash.Comparable(seed, t.word)
	}
	h := maphash.String(seed, t.name)
	if t.word != 0 {
		h ^= maphash.Comparable(seed, t.word)
	}
	return h
}

// String renders the term in surface syntax.
func (t Term) String() string {
	switch t.kind {
	case KindVar:
		if t.word != 0 {
			var buf [32]byte
			return string(t.AppendTo(buf[:0]))
		}
		return t.name
	case KindSymbol:
		return t.name
	case KindNumber:
		return strconv.FormatFloat(t.Float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(t.name)
	default:
		return fmt.Sprintf("<bad term kind %d>", t.kind)
	}
}

// AppendTo appends the term's surface syntax (String) to b, formatting
// numbers, quoted strings and a numbered variable's suffix in place.
func (t Term) AppendTo(b []byte) []byte {
	switch t.kind {
	case KindVar:
		b = append(b, t.name...)
		if t.word != 0 {
			b = strconv.AppendUint(append(b, '_'), t.word, 10)
		}
		return b
	case KindNumber:
		return strconv.AppendFloat(b, t.Float(), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, t.name)
	default:
		return append(b, t.String()...)
	}
}

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool { return t == u }

// Compare totally orders terms: variables < symbols < numbers < strings,
// then by value, NaNs first among numbers and -0 just before 0.
// Variables order by their printed names (X_10 before X_7), a written
// variable just before a numbered one printed alike. The order is
// arbitrary but deterministic; it is used to canonicalize formulas for
// set semantics and stable output. It is 0 exactly when t == u.
func (t Term) Compare(u Term) int {
	if t.kind != u.kind {
		return int(t.kind) - int(u.kind)
	}
	switch t.kind {
	case KindNumber:
		if c := cmp.Compare(t.Float(), u.Float()); c != 0 {
			return c
		}
		return cmp.Compare(int64(t.word), int64(u.word))
	case KindVar:
		if t.word == 0 && u.word == 0 {
			return strings.Compare(t.name, u.name)
		}
		var tb, ub [32]byte
		if c := bytes.Compare(t.AppendTo(tb[:0]), u.AppendTo(ub[:0])); c != 0 {
			return c
		}
		return cmp.Compare(t.word, u.word)
	default:
		return strings.Compare(t.name, u.name)
	}
}

// Atom is an atomic formula: a predicate symbol applied to a list of
// argument terms. The empty argument list is permitted (propositional
// atoms). Atoms are treated as immutable; all transforming operations
// return fresh atoms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom. The argument slice is copied so callers may
// reuse their backing arrays.
func NewAtom(pred string, args ...Term) Atom {
	cp := make([]Term, len(args))
	copy(cp, args)
	return Atom{Pred: pred, Args: cp}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Functor returns the conventional name/arity identifier, e.g. "student/3".
func (a Atom) Functor() string { return a.Pred + "/" + strconv.Itoa(len(a.Args)) }

// String renders the atom in surface syntax. Binary comparison atoms are
// rendered infix, matching the paper's presentation, e.g. `Z > 3.7`. The
// text is built in a stack buffer, so a line of up to its size costs one
// allocation: the string itself.
func (a Atom) String() string {
	var buf [128]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the atom's surface syntax (String) to b: its fixed
// texts (AppendFixed) with an argument between each two.
func (a Atom) AppendTo(b []byte) []byte {
	if len(a.Args) == 2 && IsComparisonPred(a.Pred) {
		b = append(a.Args[0].AppendTo(b), ' ')
		b = append(append(b, a.Pred...), ' ')
		return a.Args[1].AppendTo(b)
	}
	b = append(b, a.Pred...)
	if len(a.Args) == 0 {
		return b
	}
	b = append(b, '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.AppendTo(b)
	}
	return append(b, ')')
}

// AppendFixed appends the atom's fixed text k to b, as AppendTo writes
// it: the text before the first argument (k = 0), between arguments k-1
// and k, or after the last argument (k = Arity()). A binary comparison
// is written infix, `Z > 3.7`; any other atom as `p(a, b)`, or `p` with
// no argument.
func (a Atom) AppendFixed(b []byte, k int) []byte {
	switch {
	case IsComparison(a) && k == 1:
		return append(append(append(b, ' '), a.Pred...), ' ')
	case IsComparison(a):
		return b
	case k == 0 && len(a.Args) == 0:
		return append(b, a.Pred...)
	case k == 0:
		return append(append(b, a.Pred...), '(')
	case k == len(a.Args):
		return append(b, ')')
	default:
		return append(b, ", "...)
	}
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Compare totally orders atoms by predicate, arity, then arguments.
func (a Atom) Compare(b Atom) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	if c := len(a.Args) - len(b.Args); c != 0 {
		return c
	}
	for i := range a.Args {
		if c := a.Args[i].Compare(b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Key returns a string that uniquely identifies the atom's structure.
// It is suitable as a map key for memoization and duplicate elimination.
func (a Atom) Key() string {
	var buf [128]byte
	return string(a.AppendKey(buf[:0]))
}

// AppendKey appends the atom's Key to b.
func (a Atom) AppendKey(b []byte) []byte {
	b = append(b, a.Pred...)
	for _, t := range a.Args {
		b = t.AppendKey(b)
	}
	return b
}

// AppendKey appends the term's part of an atom's Key to b: a separator,
// its kind, and its surface syntax; a numbered variable's number follows
// a '#' instead of an '_', so its key is not a written variable's.
func (t Term) AppendKey(b []byte) []byte {
	b = append(b, '\x00', byte('0'+t.kind))
	if t.kind == KindVar && t.word != 0 {
		return strconv.AppendUint(append(append(b, t.name...), '#'), t.word, 10)
	}
	return t.AppendTo(b)
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the variables of the atom to dst in order of first
// occurrence (dst may be nil) and returns the extended slice. Duplicates
// already present in dst are not re-added.
func (a Atom) Vars(dst []Term) []Term {
	for _, t := range a.Args {
		if t.IsVar() && !containsTerm(dst, t) {
			dst = append(dst, t)
		}
	}
	return dst
}

func containsTerm(ts []Term, t Term) bool {
	for _, u := range ts {
		if u == t {
			return true
		}
	}
	return false
}

// Formula is a positive formula: a conjunction of atoms (paper §2.1).
// The empty formula is the trivially true body.
type Formula []Atom

// Vars returns the variables of the formula in order of first occurrence.
func (f Formula) Vars() []Term {
	var vs []Term
	for _, a := range f {
		vs = a.Vars(vs)
	}
	return vs
}

// String renders the conjunction with the paper's "and" connective.
func (f Formula) String() string {
	if len(f) == 0 {
		return "true"
	}
	parts := make([]string, len(f))
	for i, a := range f {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

// Equal reports whether two formulas are identical atom-for-atom
// (order-sensitive).
func (f Formula) Equal(g Formula) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if !f[i].Equal(g[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the formula.
func (f Formula) Clone() Formula {
	g := make(Formula, len(f))
	for i, a := range f {
		g[i] = NewAtom(a.Pred, a.Args...)
	}
	return g
}

// Key returns a canonical key for the formula as an (ordered) conjunction.
func (f Formula) Key() string {
	parts := make([]string, len(f))
	for i, a := range f {
		parts[i] = a.Key()
	}
	return strings.Join(parts, "\x01")
}

// SetKey returns a canonical key for the formula as a *set* of atoms:
// two formulas that differ only in conjunct order or duplication share a
// SetKey.
func (f Formula) SetKey() string {
	parts := make([]string, 0, len(f))
	seen := make(map[string]bool, len(f))
	for _, a := range f {
		k := a.Key()
		if !seen[k] {
			seen[k] = true
			parts = append(parts, k)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// Pos is an optional source position: the file, line and column of the
// clause head as recorded by the parser. The zero Pos means "unknown"
// (rules built programmatically). Pos is carried alongside a Rule for
// diagnostics only: it participates in neither Equal, String, nor Key.
type Pos struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// IsValid reports whether the position is known.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "file:line:col" ("line:col" without a file; "-" when
// unknown).
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Rule is a Horn clause of the paper's first form: head ← body, where the
// body is a (possibly empty) positive formula. A rule with an empty body
// and no variables is a fact.
type Rule struct {
	Head Atom
	Body Formula
	// Pos is the source position of the clause head, when known. It is
	// metadata: Equal, String and Key ignore it, so two rules differing
	// only in Pos are interchangeable everywhere but in diagnostics.
	Pos Pos
}

// NewRule constructs a rule, copying both head arguments and body.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: NewAtom(head.Pred, head.Args...), Body: Formula(body).Clone()}
}

// IsFact reports whether the rule is a ground fact.
func (r Rule) IsFact() bool { return len(r.Body) == 0 && r.Head.IsGround() }

// String renders the rule in surface syntax: `head :- body.` or `head.`.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Equal reports structural equality of rules (order-sensitive bodies).
func (r Rule) Equal(s Rule) bool {
	return r.Head.Equal(s.Head) && r.Body.Equal(s.Body)
}

// Vars returns all variables of the rule in order of first occurrence,
// head first.
func (r Rule) Vars() []Term {
	vs := r.Head.Vars(nil)
	for _, a := range r.Body {
		vs = a.Vars(vs)
	}
	return vs
}

// Key returns a canonical key for the rule.
func (r Rule) Key() string { return r.Head.Key() + "\x02" + r.Body.Key() }

// Unbound returns the first variable that range restriction leaves free
// in the rule head :- body, whose body is the conjunction of the given
// formulas: a variable of the head (inHead) or of a comparison other
// than =, that no positive ordinary body atom binds. An equality binds
// either side from the other. ok is false when the rule is
// range-restricted. It is the one safety check: the load's analysis, the
// statement check and the evaluator all ask it, and it allocates nothing
// while the body holds at most 16 distinct variables.
func Unbound(head Atom, body ...Formula) (v Term, inHead, ok bool) {
	var buf [16]Term
	bound := buf[:0]
	for _, f := range body {
		for _, a := range f {
			if !IsComparison(a) {
				bound = a.Vars(bound)
			}
		}
	}
	// Equality atoms propagate: X = c binds X; X = Y binds either from
	// the other. Iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, f := range body {
			for _, a := range f {
				if a.Pred != PredEq || len(a.Args) != 2 {
					continue
				}
				l, r := a.Args[0], a.Args[1]
				lB := !l.IsVar() || containsTerm(bound, l)
				rB := !r.IsVar() || containsTerm(bound, r)
				switch {
				case lB && !rB:
					bound, changed = append(bound, r), true
				case rB && !lB:
					bound, changed = append(bound, l), true
				}
			}
		}
	}
	for _, t := range head.Args {
		if t.IsVar() && !containsTerm(bound, t) {
			return t, true, true
		}
	}
	for _, f := range body {
		for _, a := range f {
			if !IsComparison(a) || a.Pred == PredEq {
				continue
			}
			for _, t := range a.Args {
				if t.IsVar() && !containsTerm(bound, t) {
					return t, false, true
				}
			}
		}
	}
	return Term{}, false, false
}

// Comparison predicate names recognized by the system. These form the set
// R of built-in predicates in the paper's example database (§2.2).
const (
	PredEq = "="
	PredNe = "!="
	PredLt = "<"
	PredLe = "<="
	PredGt = ">"
	PredGe = ">="
)

// IsComparisonPred reports whether pred is one of the built-in binary
// comparison predicates.
func IsComparisonPred(pred string) bool {
	switch pred {
	case PredEq, PredNe, PredLt, PredLe, PredGt, PredGe:
		return true
	}
	return false
}

// IsComparison reports whether the atom is a built-in binary comparison.
func IsComparison(a Atom) bool {
	return len(a.Args) == 2 && IsComparisonPred(a.Pred)
}
