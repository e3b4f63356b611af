// Package core implements the paper's primary contribution: evaluation of
// knowledge queries — the `describe p where ψ` statement (§3.2) — through
// Algorithm 1 (non-recursive subjects, §4) and Algorithm 2 (the general
// case via the rule transformation, tags and typed substitutions, §5),
// together with the Section 6 extensions: `where necessary`, negative
// hypotheses, the subjectless possibility check, the wildcard subject,
// and concept comparison.
package core

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"kdb/internal/term"
)

// Answer is one formula of a knowledge answer: a rule `subject ← body`
// that is logically derived from the IDB under the query's hypothesis.
type Answer struct {
	// Head is the subject atom with the user's variables.
	Head term.Atom
	// Body is the residual positive formula: the derivation-tree leaves
	// that were not identified with hypothesis formulas, plus equality
	// atoms recording bindings the identification imposed on subject
	// variables.
	Body term.Formula
	// UsedHypothesis holds the indices (into the query's hypothesis) of
	// the conjuncts that participated in this answer — by identification
	// for ordinary conjuncts, by implication for comparisons. It drives
	// the `where necessary` extension.
	UsedHypothesis []int
	// ViaRules records the rules applied in the derivation, for
	// provenance display.
	ViaRules []term.Rule
}

// Rule renders the answer as a Horn rule.
func (a Answer) Rule() term.Rule { return term.Rule{Head: a.Head, Body: a.Body} }

// Provenance returns the distinct IDB rules the derivation applied, in
// application order — the paper's theorems are consequences of these
// axioms plus the hypothesis.
func (a Answer) Provenance() []term.Rule {
	seen := make(map[string]bool, len(a.ViaRules))
	out := make([]term.Rule, 0, len(a.ViaRules))
	for _, r := range a.ViaRules {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// String renders the answer in the paper's style, e.g.
// "can_ta(X, databases) <- complete(X, databases, Z, U) and U > 3.3".
func (a Answer) String() string {
	var buf [256]byte
	return string(a.appendTo(buf[:0]))
}

// appendTo appends the answer's String to b.
func (a Answer) appendTo(b []byte) []byte {
	b = a.Head.AppendTo(b)
	if len(a.Body) == 0 {
		return append(b, " <- true"...)
	}
	b = append(b, " <- "...)
	for i, atom := range a.Body {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = atom.AppendTo(b)
	}
	return b
}

// StringWithProvenance renders the answer followed by one indented
// "via" line per distinct applied rule — the describe-side counterpart
// of the explain statement's derivation trees, shared by every surface
// that shows provenance (the REPL's .provenance toggle, intensional
// answers).
func (a Answer) StringWithProvenance() string {
	var b strings.Builder
	b.WriteString(a.String())
	for _, r := range a.Provenance() {
		b.WriteString("\n   via ")
		b.WriteString(r.String())
	}
	return b.String()
}

// keyer builds the duplicate-elimination key of answers in buffers it
// reuses, so checking a key that is already known allocates nothing.
// The zero value is ready to use; a keyer belongs to one goroutine.
type keyer struct {
	buf   []byte
	spans []span
	vars  []term.Term // the body's non-user variables, by first occurrence
}

// span is one atom's key within keyer.buf.
type span struct{ from, to int }

// key canonicalizes head ← body for duplicate elimination: user
// variables stay fixed, every other variable is numbered in order of
// first occurrence (_G1, _G2, …), and the body is treated as a set of
// atom keys, sorted by bytes and deduplicated. The result is valid until
// the next call. Renaming non-user variables apart injectively, as
// prettify does, leaves the key unchanged.
func (k *keyer) key(head term.Atom, body term.Formula, userVars []term.Term) []byte {
	b, spans, vars := k.buf[:0], k.spans[:0], k.vars[:0]
	for _, a := range body {
		from := len(b)
		b = append(b, a.Pred...)
		for _, t := range a.Args {
			if !t.IsVar() || slices.Contains(userVars, t) {
				b = t.AppendKey(b)
				continue
			}
			n := slices.Index(vars, t)
			if n < 0 {
				n = len(vars)
				vars = append(vars, t)
			}
			b = strconv.AppendInt(append(b, '\x00', '0', '_', 'G'), int64(n+1), 10)
		}
		spans = append(spans, span{from, len(b)})
	}
	slices.SortFunc(spans, func(x, y span) int { return bytes.Compare(b[x.from:x.to], b[y.from:y.to]) })
	out := len(b)
	b = append(head.AppendKey(b), '\x03')
	for i, s := range spans {
		if i > 0 {
			prev := spans[i-1]
			if bytes.Equal(b[prev.from:prev.to], b[s.from:s.to]) {
				continue
			}
			b = append(b, '\x01')
		}
		b = append(b, b[s.from:s.to]...)
	}
	k.buf, k.spans, k.vars = b, spans, vars
	return b[out:]
}

// Answers is the complete response to a describe query.
type Answers struct {
	// Subject and Hypothesis echo the query.
	Subject    term.Atom
	Hypothesis term.Formula
	// Formulas are the answer rules, redundancy-eliminated, in derivation
	// order.
	Formulas []Answer
	// Contradiction is the paper's special answer: every candidate was
	// discarded because the hypothesis contradicts the IDB's comparison
	// constraints (§4, end).
	Contradiction bool
	// SearchStats is what the statement's searches did.
	SearchStats
	// Notes carry advisory findings about how the answer was produced
	// (e.g. the subject depends on recursion outside the §2.1 discipline,
	// so the bounded §5.3 mode answered). They are attached by the caller
	// and deliberately not rendered by String.
	Notes []string
}

// SearchStats is the record of one describe statement's searches, every
// search of a disjunction's disjuncts or a wildcard's subjects folded in.
type SearchStats struct {
	// Nodes counts the derivation-tree search steps — a
	// machine-independent cost measure for the ablation benchmarks.
	Nodes int
	// Algorithm is the paper's algorithm that searched: 1, or 2 when any
	// search ran Algorithm 2 (§5.3).
	Algorithm int
	// Truncated reports that a search hit a resource bound (MaxNodes or
	// MaxAnswers) and the answer may be incomplete.
	Truncated bool
	// SearchWall is the wall time of the searches (derivation trees built
	// and cut), PostWall that of redundancy elimination and merging.
	SearchWall, PostWall time.Duration
}

// Empty reports whether the answer carries no information.
func (as *Answers) Empty() bool { return len(as.Formulas) == 0 && !as.Contradiction }

// String renders the whole answer, one formula per line.
func (as *Answers) String() string {
	if as.Contradiction {
		return "false (the hypothesis contradicts the knowledge base)"
	}
	if len(as.Formulas) == 0 {
		return "no answer"
	}
	b := make([]byte, 0, 64*len(as.Formulas))
	for i, a := range as.Formulas {
		if i > 0 {
			b = append(b, '\n')
		}
		b = a.appendTo(b)
	}
	return string(b)
}

// SortedStrings renders the formulas in a deterministic order (for tests).
func (as *Answers) SortedStrings() []string {
	out := make([]string, len(as.Formulas))
	for i, a := range as.Formulas {
		out[i] = a.String()
	}
	sort.Strings(out)
	return out
}

// prettify renames machine-generated variables (X_12) in the answer body
// back to readable base names (X), provided the base name does not clash
// with a user variable or another renamed variable of the same answer.
// Head and body become a copy the answer owns: one formula over one term
// array.
func (a *Answer) prettify(userVars []term.Term) {
	n := len(a.Head.Args)
	for _, atom := range a.Body {
		n += len(atom.Args)
	}
	terms := make([]term.Term, n)
	body := make(term.Formula, len(a.Body))
	head := terms[:len(a.Head.Args):len(a.Head.Args)]
	copy(head, a.Head.Args)
	a.Head.Args, terms = head, terms[len(head):]
	var pairs [8]renamePair
	renames := pairs[:0]
	taken := func(name string) bool {
		for _, v := range userVars {
			if v.Name() == name {
				return true
			}
		}
		for _, p := range renames {
			if p.to.Name() == name {
				return true
			}
		}
		return false
	}
	fresh := 0
	for i, atom := range a.Body {
		args := terms[:len(atom.Args):len(atom.Args)]
		terms = terms[len(atom.Args):]
		for j, t := range atom.Args {
			if t.IsVar() && !slices.Contains(userVars, t) {
				to, done := lookupRename(renames, t)
				if !done {
					base := t.Name()
					if cut := strings.IndexByte(base, '_'); cut > 0 {
						base = base[:cut]
					}
					name := base
					for taken(name) {
						fresh++
						name = base + strconv.Itoa(fresh)
					}
					to = term.Var(name)
					renames = append(renames, renamePair{t, to})
				}
				t = to
			}
			args[j] = t
		}
		body[i] = term.Atom{Pred: atom.Pred, Args: args}
	}
	a.Body = body
}

// renamePair is one binding of a small renaming kept as a slice.
type renamePair struct{ from, to term.Term }

// lookupRename returns the image of v under the renaming, if it has one.
func lookupRename(renames []renamePair, v term.Term) (term.Term, bool) {
	for _, p := range renames {
		if p.from == v {
			return p.to, true
		}
	}
	return v, false
}

// setRename binds from to to in the renaming, replacing an earlier
// binding of from.
func setRename(renames []renamePair, from, to term.Term) []renamePair {
	for i := range renames {
		if renames[i].from == from {
			renames[i].to = to
			return renames
		}
	}
	return append(renames, renamePair{from, to})
}

// renamed returns a copy of f with every variable replaced by its image
// under the renaming, all at once: an image is not renamed again.
func renamed(f term.Formula, renames []renamePair) term.Formula {
	out := make(term.Formula, len(f))
	for i, a := range f {
		args := make([]term.Term, len(a.Args))
		for j, t := range a.Args {
			args[j], _ = lookupRename(renames, t)
		}
		out[i] = term.Atom{Pred: a.Pred, Args: args}
	}
	return out
}
