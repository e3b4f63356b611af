package kb

import (
	"fmt"

	"kdb/internal/analysis"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// checkLocked refuses a statement that cannot be answered as asked on
// the current generation: the one place a statement is checked. It runs
// under the read lock the statement holds to its end, so what it accepts
// is what the evaluation or the search meets, and it allocates nothing on
// a statement it accepts. A refusal is an *analysis.Error of one
// diagnostic, or a *sysrel.RefError for a reference into the sys_
// namespace that no virtual relation serves.
//
//kdb:rlocked mu
func (k *KB) checkLocked(q parser.Query) error {
	switch s := q.(type) {
	case *parser.Retrieve:
		return k.checkQualifiedLocked(s.Subject, s.Where, s.Or)
	case *parser.Explain:
		return k.checkQualifiedLocked(s.Subject, s.Where, nil)
	case *parser.Profile:
		return k.checkQualifiedLocked(s.Subject, s.Where, nil)
	case *parser.Describe:
		return k.checkDescribeLocked(s, false)
	case *parser.Compare:
		l, r := s.Left.Subject, s.Right.Subject
		for _, side := range [2]*parser.Describe{s.Left, s.Right} {
			if err := k.checkDescribeLocked(side, true); err != nil {
				return err
			}
		}
		if len(l.Args) != len(r.Args) {
			return refuse("subject", r.Pred, "cannot compare %s/%d with %s/%d: different arities", l.Pred, len(l.Args), r.Pred, len(r.Args))
		}
		for i, t := range r.Args {
			if t.IsConst() && t != l.Args[i] {
				return refuse("subject", r.Pred, "cannot align constant argument %v with %v", t, l.Args[i])
			}
		}
	}
	return nil // the parser makes no other statement
}

// checkQualifiedLocked checks a retrieve, explain or profile: each
// disjunct equates no two variables (§3.1) and makes a range-restricted
// query rule, which joins the subject to the disjunct when the subject is
// a relation the evaluator knows (stored, derived or virtual); otherwise
// the disjunct alone defines it (§3.1, Example 2).
//
//kdb:rlocked mu
func (k *KB) checkQualifiedLocked(subject term.Atom, where term.Formula, or []term.Formula) error {
	if err := k.checkAtomsLocked(subject); err != nil {
		return err
	}
	pred := subject.Pred
	known := k.store.Relation(pred) != nil || len(k.prog.graph.RulesFor(pred)) > 0 || sysrel.Lookup(pred) != nil
	for i := -1; i < len(or); i++ {
		d := where
		if i >= 0 {
			d = or[i]
		}
		if err := k.checkAtomsLocked(d...); err != nil {
			return err
		}
		for _, a := range d {
			if a.Pred == term.PredEq && a.Args[0].IsVar() && a.Args[1].IsVar() {
				return refuse("qualifier", "", "a qualifier may not equate two variables (§3.1): %v", a)
			}
		}
		joined := term.Formula{subject}
		if !known {
			joined = nil
		}
		switch v, inHead, unsafe := term.Unbound(subject, joined, d); {
		case unsafe && inHead:
			return refuse("safety", pred, "unsafe statement: variable %v of %v is not bound by any positive atom of the qualifier, and %s is no stored, derived or system relation", v, subject, pred)
		case unsafe:
			return refuse("safety", pred, "unsafe statement: comparison variable %v is not bound by any positive atom", v)
		}
	}
	return nil
}

// checkDescribeLocked checks one describe: its subject is an IDB
// predicate, or, unless idbOnly (a compare side, a retrieve's intensional
// answer), a served sys_ relation; a wildcard or subjectless describe has
// a positive hypothesis and no `not`; no disjunct is empty.
//
//kdb:rlocked mu
func (k *KB) checkDescribeLocked(s *parser.Describe, idbOnly bool) error {
	switch pred := s.Subject.Pred; {
	case s.Wildcard || s.Subjectless:
		form := "wildcard"
		if s.Subjectless {
			form = "subjectless"
		}
		if len(s.Not) > 0 || len(s.Where) == 0 {
			return refuse("qualifier", "", "a %s describe needs a hypothesis, and takes no 'not'", form)
		}
	case sysrel.IsName(pred) && !idbOnly:
		// A virtual relation is described by its fixed definition, whatever
		// the arguments and the hypothesis.
		if sysrel.Lookup(pred) == nil {
			return fmt.Errorf("kb: %w", &sysrel.RefError{Pred: pred})
		}
		return nil
	default:
		if err := k.checkAtomsLocked(s.Subject); err != nil {
			return err
		}
		if len(k.prog.graph.RulesFor(pred)) == 0 {
			return refuse("subject", pred, "%s is not an IDB predicate; describe inquires about defined concepts", pred)
		}
	}
	for _, f := range [2]term.Formula{s.Where, s.Not} {
		if err := k.checkAtomsLocked(f...); err != nil {
			return err
		}
	}
	for _, d := range s.Or {
		if len(d) == 0 || len(s.Where) == 0 {
			return refuse("qualifier", "", "an empty disjunct makes the hypothesis trivially true")
		}
		if err := k.checkAtomsLocked(d...); err != nil {
			return err
		}
	}
	return nil
}

// checkAtomsLocked checks the arity of every atom of f, a statement's or
// a loaded clause's: a sys_ atom matches its served schema, and an atom
// the catalog knows — a comparison is binary there — is used at the
// arity it knows. An unknown predicate is an empty relation, at any
// arity.
//
//kdb:rlocked mu
func (k *KB) checkAtomsLocked(f ...term.Atom) error {
	for _, a := range f {
		if sysrel.IsName(a.Pred) {
			if err := sysrel.Check(a); err != nil {
				return fmt.Errorf("kb: %w", err)
			}
		} else if n, ok := k.cat.Arity(a.Pred); ok && n >= 0 && n != len(a.Args) {
			return refuse("arity", a.Pred, "%s used with arity %d but known with arity %d", a.Pred, len(a.Args), n)
		}
	}
	return nil
}

// refuse returns the refusal of a statement: an *analysis.Error of one
// diagnostic by the named check, about subject when there is one.
func refuse(check, subject, format string, args ...any) error {
	return &analysis.Error{Diags: []analysis.Diagnostic{{
		Analyzer: check, Severity: analysis.SevError, Subject: subject, Message: fmt.Sprintf(format, args...),
	}}}
}
