package parser

import (
	"strconv"

	"kdb/internal/term"
)

// parser is a recursive-descent parser over the lexer's token stream with
// one token of lookahead.
type parser struct {
	lex  *lexer
	tok  Token  // current token
	file string // source name for rule positions ("" when unnamed)
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: newLexer(src)}
	return p, p.advance()
}

// newQueryParser is newParser with $n placeholders enabled (prepared
// statements are queries; programs may not contain holes).
func newQueryParser(src string) (*parser, error) {
	p := &parser{lex: newLexer(src)}
	p.lex.placeholders = true
	return p, p.advance()
}

// rulePos converts a token position into a term.Pos carrying the source
// file name.
func (p *parser) rulePos(pos Pos) term.Pos {
	return term.Pos{File: p.file, Line: pos.Line, Col: pos.Col}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", kind, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return errf(p.tok.Pos, "expected %q, found %s", kw, p.tok)
	}
	return p.advance()
}

// ParseProgram parses a knowledge-base source: a sequence of facts, rules
// and declarations, each terminated by '.'. Clause positions are recorded
// without a file name; use ParseProgramFile to attach one.
func ParseProgram(src string) (*Program, error) {
	return ParseProgramFile("", src)
}

// ParseProgramFile parses a knowledge-base source like ParseProgram and
// stamps every clause position with the given source name (typically the
// path of the loaded file), so diagnostics can point at file:line:col.
func ParseProgramFile(name, src string) (*Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	p.file = name
	prog := &Program{}
	for p.tok.Kind != TokEOF {
		switch p.tok.Kind {
		case TokAt:
			d, err := p.parseDeclaration()
			if err != nil {
				return nil, err
			}
			prog.Declarations = append(prog.Declarations, d)
		case TokColonDash:
			// Headless clause: an integrity constraint ¬(p1 ∧ … ∧ pn).
			cpos := p.rulePos(p.tok.Pos)
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			prog.Constraints = append(prog.Constraints, c)
			prog.ConstraintPos = append(prog.ConstraintPos, cpos)
		default:
			r, err := p.parseClause()
			if err != nil {
				return nil, err
			}
			prog.Clauses = append(prog.Clauses, r)
		}
	}
	return prog, nil
}

// parseConstraint parses `:- p1, …, pn.` (the paper's second Horn-clause
// form, §2.1).
func (p *parser) parseConstraint() (term.Formula, error) {
	if err := p.advance(); err != nil { // consume ':-'
		return nil, err
	}
	var body term.Formula
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		body = append(body, a)
		if p.tok.Kind == TokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(TokDot); err != nil {
		return nil, err
	}
	ordinary := 0
	for _, a := range body {
		if !term.IsComparison(a) {
			ordinary++
		}
	}
	if ordinary == 0 {
		return nil, errf(p.tok.Pos, "a constraint needs at least one ordinary atom")
	}
	return body, nil
}

// ParseQuery parses a single query statement (retrieve / describe /
// compare), terminated by '.'.
func ParseQuery(src string) (Query, error) {
	p, err := newQueryParser(src)
	if err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, errf(p.tok.Pos, "unexpected input after query: %s", p.tok)
	}
	return q, nil
}

// ParseQueries parses a sequence of query statements.
func ParseQueries(src string) ([]Query, error) {
	p, err := newQueryParser(src)
	if err != nil {
		return nil, err
	}
	var out []Query
	for p.tok.Kind != TokEOF {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// ParseAtom parses a single atom (no trailing '.').
func ParseAtom(src string) (term.Atom, error) {
	p, err := newParser(src)
	if err != nil {
		return term.Atom{}, err
	}
	a, err := p.parseAtom()
	if err != nil {
		return term.Atom{}, err
	}
	if p.tok.Kind != TokEOF {
		return term.Atom{}, errf(p.tok.Pos, "unexpected input after atom: %s", p.tok)
	}
	return a, nil
}

// ParseFormula parses a conjunction `a1 and a2 and …` (no trailing '.').
func ParseFormula(src string) (term.Formula, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	f, _, err := p.parseConjunction(false)
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, errf(p.tok.Pos, "unexpected input after formula: %s", p.tok)
	}
	return f, nil
}

func (p *parser) parseDeclaration() (Declaration, error) {
	pos := p.tok.Pos
	if _, err := p.expect(TokAt); err != nil {
		return Declaration{}, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return Declaration{}, err
	}
	switch name.Text {
	case "key":
		return p.parseKeyDecl(pos)
	case "name":
		return p.parseNameDecl(pos)
	default:
		return Declaration{}, errf(name.Pos, "unknown declaration @%s (want @key or @name)", name.Text)
	}
}

// @key pred/arity col [col…].
func (p *parser) parseKeyDecl(pos Pos) (Declaration, error) {
	d := Declaration{Kind: DeclKey, Pos: pos}
	pred, err := p.expect(TokIdent)
	if err != nil {
		return d, err
	}
	d.Pred = pred.Text
	if _, err := p.expect(TokSlash); err != nil {
		return d, err
	}
	ar, err := p.expect(TokNumber)
	if err != nil {
		return d, err
	}
	n, err2 := strconv.Atoi(ar.Text)
	if err2 != nil || n < 0 {
		return d, errf(ar.Pos, "invalid arity %q", ar.Text)
	}
	d.Arity = n
	for p.tok.Kind == TokNumber {
		c, err2 := strconv.Atoi(p.tok.Text)
		if err2 != nil || c < 1 || c > n {
			return d, errf(p.tok.Pos, "key column %q out of range 1..%d", p.tok.Text, n)
		}
		d.Columns = append(d.Columns, c)
		if err := p.advance(); err != nil {
			return d, err
		}
	}
	if len(d.Columns) == 0 {
		return d, errf(p.tok.Pos, "@key needs at least one column number")
	}
	_, err = p.expect(TokDot)
	return d, err
}

// @name pred preferred_name.
func (p *parser) parseNameDecl(pos Pos) (Declaration, error) {
	d := Declaration{Kind: DeclName, Pos: pos}
	pred, err := p.expect(TokIdent)
	if err != nil {
		return d, err
	}
	d.Pred = pred.Text
	name, err := p.expect(TokIdent)
	if err != nil {
		return d, err
	}
	d.Name = name.Text
	_, err = p.expect(TokDot)
	return d, err
}

// parseClause parses `head.` or `head :- body.`. The returned rule
// carries the source position of its head.
func (p *parser) parseClause() (term.Rule, error) {
	pos := p.rulePos(p.tok.Pos)
	head, err := p.parseAtom()
	if err != nil {
		return term.Rule{}, err
	}
	if term.IsComparison(head) {
		return term.Rule{}, errf(p.tok.Pos, "a comparison cannot be the head of a clause")
	}
	switch p.tok.Kind {
	case TokDot:
		if err := p.advance(); err != nil {
			return term.Rule{}, err
		}
		return term.Rule{Head: head, Pos: pos}, nil
	case TokColonDash:
		if err := p.advance(); err != nil {
			return term.Rule{}, err
		}
		var body term.Formula
		for {
			a, err := p.parseAtom()
			if err != nil {
				return term.Rule{}, err
			}
			body = append(body, a)
			if p.tok.Kind == TokComma {
				if err := p.advance(); err != nil {
					return term.Rule{}, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(TokDot); err != nil {
			return term.Rule{}, err
		}
		return term.Rule{Head: head, Body: body, Pos: pos}, nil
	default:
		return term.Rule{}, errf(p.tok.Pos, "expected '.' or ':-' after clause head, found %s", p.tok)
	}
}

// parseAtom parses `pred(args)` or `pred` or an infix comparison
// `term op term`.
func (p *parser) parseAtom() (term.Atom, error) {
	// An atom can start with a term when it is an infix comparison
	// (`X > 3.7`, `3 < Y`), or with a predicate identifier.
	if p.tok.Kind == TokVariable || p.tok.Kind == TokNumber || p.tok.Kind == TokString {
		left, err := p.parseTerm()
		if err != nil {
			return term.Atom{}, err
		}
		return p.parseComparisonRest(left)
	}
	if p.tok.Kind != TokIdent {
		return term.Atom{}, errf(p.tok.Pos, "expected atom, found %s", p.tok)
	}
	pred := p.tok
	if err := p.advance(); err != nil {
		return term.Atom{}, err
	}
	if p.tok.Kind != TokLParen {
		// Could be a propositional atom, or a symbol followed by an infix
		// comparison (`databases = X` — rare but legal).
		if p.tok.Kind == TokOp {
			return p.parseComparisonRest(term.Sym(pred.Text))
		}
		return term.NewAtom(pred.Text), nil
	}
	if err := p.advance(); err != nil {
		return term.Atom{}, err
	}
	var args []term.Term
	if p.tok.Kind != TokRParen {
		for {
			t, err := p.parseTerm()
			if err != nil {
				return term.Atom{}, err
			}
			args = append(args, t)
			if p.tok.Kind == TokComma {
				if err := p.advance(); err != nil {
					return term.Atom{}, err
				}
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return term.Atom{}, err
	}
	return term.NewAtom(pred.Text, args...), nil
}

func (p *parser) parseComparisonRest(left term.Term) (term.Atom, error) {
	op, err := p.expect(TokOp)
	if err != nil {
		return term.Atom{}, err
	}
	right, err := p.parseTerm()
	if err != nil {
		return term.Atom{}, err
	}
	return term.NewAtom(op.Text, left, right), nil
}

func (p *parser) parseTerm() (term.Term, error) {
	tok := p.tok
	switch tok.Kind {
	case TokVariable:
		if err := p.advance(); err != nil {
			return term.Term{}, err
		}
		return term.Var(tok.Text), nil
	case TokIdent:
		if err := p.advance(); err != nil {
			return term.Term{}, err
		}
		return term.Sym(tok.Text), nil
	case TokNumber:
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return term.Term{}, errf(tok.Pos, "invalid number %q", tok.Text)
		}
		if err := p.advance(); err != nil {
			return term.Term{}, err
		}
		return term.Num(v), nil
	case TokString:
		if err := p.advance(); err != nil {
			return term.Term{}, err
		}
		return term.Str(tok.Text), nil
	default:
		return term.Term{}, errf(tok.Pos, "expected a term, found %s", tok)
	}
}

// parseQuery parses one query statement ending in '.'.
func (p *parser) parseQuery() (Query, error) {
	pos := p.tok.Pos
	switch {
	case p.atKeyword("retrieve"), p.atKeyword("explain"), p.atKeyword("profile"):
		kw := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseRetrieve(kw, pos)
	case p.atKeyword("describe"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseDescribe(pos)
	case p.atKeyword("compare"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseCompare(pos)
	default:
		return nil, errf(pos, "expected retrieve, describe, compare, explain, or profile, found %s", p.tok)
	}
}

// parseRetrieve parses the rest of a retrieve-shaped statement after its
// keyword kw, `kw p(…) [where ψ1 [or ψ2 …]].`, and builds it: a Retrieve,
// an Explain or a Profile. Only retrieve takes more than one disjunct.
func (p *parser) parseRetrieve(kw string, pos Pos) (Query, error) {
	subject, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if term.IsComparison(subject) {
		return nil, errf(pos, "the subject of %s cannot be a comparison", kw)
	}
	var where term.Formula
	var or []term.Formula
	if p.atKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if where, _, err = p.parseConjunction(false); err != nil {
			return nil, err
		}
		for p.atKeyword("or") {
			if kw != "retrieve" {
				return nil, errf(pos, "'or' is not allowed in %s qualifiers", kw)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			d, _, err := p.parseConjunction(false)
			if err != nil {
				return nil, err
			}
			or = append(or, d)
		}
	}
	if _, err := p.expect(TokDot); err != nil {
		return nil, err
	}
	switch kw {
	case "explain":
		return &Explain{Subject: subject, Where: where, Pos: pos}, nil
	case "profile":
		return &Profile{Subject: subject, Where: where, Pos: pos}, nil
	}
	return &Retrieve{Subject: subject, Where: where, Or: or, Pos: pos}, nil
}

// parseDescribe parses the describe body after the keyword, with an
// optional subject / '*' / nothing, then the where clause. The final '.'
// is consumed unless inParens is implied by the caller (compare handles
// its own parentheses by calling parseDescribeNoDot).
func (p *parser) parseDescribe(pos Pos) (Query, error) {
	q, err := p.parseDescribeNoDot(pos)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokDot); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseDescribeNoDot(pos Pos) (*Describe, error) {
	q := &Describe{Pos: pos}
	switch {
	case p.tok.Kind == TokStar:
		q.Wildcard = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.atKeyword("where"):
		q.Subjectless = true
	default:
		subject, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if term.IsComparison(subject) {
			return nil, errf(pos, "the subject of describe cannot be a comparison")
		}
		q.Subject = subject
	}
	if p.atKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("necessary") {
			q.Necessary = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		where, nots, err := p.parseConjunction(true)
		if err != nil {
			return nil, err
		}
		q.Where, q.Not = where, nots
		for p.atKeyword("or") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			d, dnots, err := p.parseConjunction(false)
			if err != nil {
				return nil, err
			}
			if len(dnots) > 0 {
				return nil, errf(pos, "'not' cannot be combined with 'or'")
			}
			q.Or = append(q.Or, d)
		}
		if len(q.Or) > 0 {
			switch {
			case len(q.Not) > 0:
				return nil, errf(pos, "'not' cannot be combined with 'or'")
			case q.Necessary:
				return nil, errf(pos, "'necessary' cannot be combined with 'or'")
			case q.Wildcard || q.Subjectless:
				return nil, errf(pos, "'or' needs an explicit describe subject")
			}
		}
	} else if q.Subjectless {
		return nil, errf(pos, "subjectless describe requires a where clause")
	}
	return q, nil
}

func (p *parser) parseCompare(pos Pos) (Query, error) {
	parseSide := func() (*Describe, error) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		dpos := p.tok.Pos
		if err := p.expectKeyword("describe"); err != nil {
			return nil, err
		}
		d, err := p.parseDescribeNoDot(dpos)
		if err != nil {
			return nil, err
		}
		if d.Wildcard || d.Subjectless {
			return nil, errf(dpos, "compare sides must have explicit subjects")
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return d, nil
	}
	left, err := parseSide()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("with"); err != nil {
		return nil, err
	}
	right, err := parseSide()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokDot); err != nil {
		return nil, err
	}
	return &Compare{Left: left, Right: right, Pos: pos}, nil
}

// parseConjunction parses `item (and item)*` where item is an atom or,
// when allowNot is true, `not atom`. It returns the positive and negated
// conjuncts separately.
func (p *parser) parseConjunction(allowNot bool) (term.Formula, term.Formula, error) {
	var pos, neg term.Formula
	for {
		negated := false
		if p.atKeyword("not") {
			if !allowNot {
				return nil, nil, errf(p.tok.Pos, "'not' is not allowed here")
			}
			negated = true
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		}
		if p.atKeyword("true") {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			if negated {
				return nil, nil, errf(p.tok.Pos, "'not true' is not a useful hypothesis")
			}
		} else {
			a, err := p.parseAtom()
			if err != nil {
				return nil, nil, err
			}
			if negated {
				neg = append(neg, a)
			} else {
				pos = append(pos, a)
			}
		}
		if p.atKeyword("and") {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			continue
		}
		return pos, neg, nil
	}
}
