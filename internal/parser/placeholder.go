package parser

import (
	"fmt"
	"strconv"
	"strings"

	"kdb/internal/term"
)

// Prepared-statement placeholders. A query may contain $1..$n holes
// (lexed as variables named "$1".."$n", which cannot collide with
// source variables). The server parses and analyzes such a template
// once, then binds fresh constants per execution with
// BindPlaceholders.

// isPlaceholder reports whether t is a $n placeholder variable.
func isPlaceholder(t term.Term) bool {
	return t.IsVar() && strings.HasPrefix(t.Name(), "$")
}

// CountPlaceholders returns the number of placeholders in the query:
// the highest $n index used. The indices must be contiguous from 1 —
// a template mentioning $1 and $3 but not $2 is rejected, since an
// argument list can never bind it meaningfully.
func CountPlaceholders(q Query) (int, error) {
	seen := make(map[int]bool)
	max := 0
	var err error
	walkQueryAtoms(q, func(a term.Atom) {
		for _, t := range a.Args {
			if !isPlaceholder(t) {
				continue
			}
			n, convErr := strconv.Atoi(t.Name()[1:])
			if convErr != nil || n < 1 {
				err = fmt.Errorf("parser: invalid placeholder %s", t.Name())
				return
			}
			seen[n] = true
			if n > max {
				max = n
			}
		}
	})
	if err != nil {
		return 0, err
	}
	for i := 1; i <= max; i++ {
		if !seen[i] {
			return 0, fmt.Errorf("parser: placeholders are not contiguous: $%d is missing (highest is $%d)", i, max)
		}
	}
	return max, nil
}

// BindPlaceholders substitutes args[i-1] for each $i and returns the
// bound query. The template itself is never mutated, so a cached
// prepared statement can be bound by concurrent executions. Every
// argument must be a constant, and len(args) must equal the template's
// placeholder count.
func BindPlaceholders(q Query, args []term.Term) (Query, error) {
	n, err := CountPlaceholders(q)
	if err != nil {
		return nil, err
	}
	if len(args) != n {
		return nil, fmt.Errorf("parser: query has %d placeholders, got %d arguments", n, len(args))
	}
	if n == 0 {
		return q, nil
	}
	sub := term.NewSubst(n)
	for i, a := range args {
		if a.IsVar() {
			return nil, fmt.Errorf("parser: placeholder argument %d is not a constant", i+1)
		}
		sub[term.Var("$"+strconv.Itoa(i+1))] = a
	}
	return bindQuery(q, sub), nil
}

// walkQueryAtoms visits every atom of the query (subjects and all
// qualifier formulas, both sides of a compare included).
func walkQueryAtoms(q Query, fn func(term.Atom)) {
	walkFormula := func(f term.Formula) {
		for _, a := range f {
			fn(a)
		}
	}
	switch s := q.(type) {
	case *Retrieve:
		fn(s.Subject)
		walkFormula(s.Where)
		for _, d := range s.Or {
			walkFormula(d)
		}
	case *Describe:
		if !s.Wildcard && !s.Subjectless {
			fn(s.Subject)
		}
		walkFormula(s.Where)
		walkFormula(s.Not)
		for _, d := range s.Or {
			walkFormula(d)
		}
	case *Explain:
		fn(s.Subject)
		walkFormula(s.Where)
	case *Profile:
		fn(s.Subject)
		walkFormula(s.Where)
	case *Compare:
		walkQueryAtoms(s.Left, fn)
		walkQueryAtoms(s.Right, fn)
	}
}

// bindQuery returns a copy of q with sub applied to every atom.
func bindQuery(q Query, sub term.Subst) Query {
	bindOr := func(or []term.Formula) []term.Formula {
		if or == nil {
			return nil
		}
		out := make([]term.Formula, len(or))
		for i, d := range or {
			out[i] = sub.ApplyFormula(d)
		}
		return out
	}
	switch s := q.(type) {
	case *Retrieve:
		out := *s
		out.Subject = sub.Apply(s.Subject)
		out.Where = sub.ApplyFormula(s.Where)
		out.Or = bindOr(s.Or)
		return &out
	case *Describe:
		out := *s
		if !s.Wildcard && !s.Subjectless {
			out.Subject = sub.Apply(s.Subject)
		}
		out.Where = sub.ApplyFormula(s.Where)
		out.Not = sub.ApplyFormula(s.Not)
		out.Or = bindOr(s.Or)
		return &out
	case *Explain:
		out := *s
		out.Subject = sub.Apply(s.Subject)
		out.Where = sub.ApplyFormula(s.Where)
		return &out
	case *Profile:
		out := *s
		out.Subject = sub.Apply(s.Subject)
		out.Where = sub.ApplyFormula(s.Where)
		return &out
	case *Compare:
		out := *s
		out.Left = bindQuery(s.Left, sub).(*Describe)
		out.Right = bindQuery(s.Right, sub).(*Describe)
		return &out
	}
	return q
}
