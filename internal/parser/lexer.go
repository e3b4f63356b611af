// Package parser implements the surface language of the reproduction:
// Horn-clause programs (facts, rules, declarations) and the paper's query
// statements (retrieve, describe, compare) as described in Section 3 of
// "Querying Database Knowledge" (Motro & Yuan, SIGMOD 1990).
//
// Lexical conventions follow the paper (§2.1): a name whose first letter
// is upper case (or '_') is a variable; lower-case names are predicate
// symbols or symbolic constants. Numbers and double-quoted strings are
// constants. `%` starts a comment that runs to end of line.
//
// Reserved words: retrieve, describe, compare, with, where, and, or, not,
// necessary, true. They may not be used as predicate or constant names.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind enumerates the lexical token types.
type TokenKind uint8

// Token kinds.
const (
	TokEOF       TokenKind = iota
	TokIdent               // lower-case identifier: predicate or symbol
	TokVariable            // upper-case or underscore identifier
	TokNumber              // numeric literal
	TokString              // double-quoted string literal
	TokLParen              // (
	TokRParen              // )
	TokComma               // ,
	TokDot                 // .
	TokColonDash           // :-
	TokAt                  // @
	TokStar                // *
	TokSlash               // /
	TokOp                  // comparison operator: = != < <= > >=
	TokKeyword             // reserved word
)

var kindNames = map[TokenKind]string{
	TokEOF: "end of input", TokIdent: "identifier", TokVariable: "variable",
	TokNumber: "number", TokString: "string", TokLParen: "'('",
	TokRParen: "')'", TokComma: "','", TokDot: "'.'", TokColonDash: "':-'",
	TokAt: "'@'", TokStar: "'*'", TokSlash: "'/'", TokOp: "operator",
	TokKeyword: "keyword",
}

// String names the token kind for error messages.
func (k TokenKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

var keywords = map[string]bool{
	"retrieve": true, "describe": true, "compare": true, "explain": true,
	"profile": true,
	"with":    true, "where": true, "and": true, "or": true, "not": true,
	"necessary": true, "true": true,
}

// IsReserved reports whether name is a reserved word of the language.
func IsReserved(name string) bool { return keywords[name] }

// IsSymbolName reports whether s is an ASCII lower-case identifier, not a
// reserved word, that the parser reads back as a symbolic constant.
func IsSymbolName(s string) bool {
	if s == "" || IsReserved(s) {
		return false
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}

// Error is a lexical or syntactic error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lexer turns input text into tokens. It is an internal type; Parse*
// functions drive it.
type lexer struct {
	src  string
	off  int
	line int
	col  int
	// placeholders permits $1..$n prepared-statement placeholders,
	// lexed as variables named "$n". Only the query entry points set it:
	// programs are stored knowledge and may not contain holes.
	placeholders bool
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.off < len(l.src); i++ {
		if l.src[l.off] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.off++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '%':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// next returns the next token or an error.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.src[l.off]
	switch c {
	case '(':
		l.advance(1)
		return Token{Kind: TokLParen, Text: "(", Pos: pos}, nil
	case ')':
		l.advance(1)
		return Token{Kind: TokRParen, Text: ")", Pos: pos}, nil
	case ',':
		l.advance(1)
		return Token{Kind: TokComma, Text: ",", Pos: pos}, nil
	case '@':
		l.advance(1)
		return Token{Kind: TokAt, Text: "@", Pos: pos}, nil
	case '*':
		l.advance(1)
		return Token{Kind: TokStar, Text: "*", Pos: pos}, nil
	case '/':
		l.advance(1)
		return Token{Kind: TokSlash, Text: "/", Pos: pos}, nil
	case '.':
		// Distinguish the clause terminator from a leading-dot number (.5
		// is not supported; numbers need a leading digit).
		l.advance(1)
		return Token{Kind: TokDot, Text: ".", Pos: pos}, nil
	case ':':
		if strings.HasPrefix(l.src[l.off:], ":-") {
			l.advance(2)
			return Token{Kind: TokColonDash, Text: ":-", Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected ':' (did you mean ':-'?)")
	case '=':
		l.advance(1)
		return Token{Kind: TokOp, Text: "=", Pos: pos}, nil
	case '!':
		if strings.HasPrefix(l.src[l.off:], "!=") {
			l.advance(2)
			return Token{Kind: TokOp, Text: "!=", Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected '!' (did you mean '!='?)")
	case '<':
		if strings.HasPrefix(l.src[l.off:], "<=") {
			l.advance(2)
			return Token{Kind: TokOp, Text: "<=", Pos: pos}, nil
		}
		l.advance(1)
		return Token{Kind: TokOp, Text: "<", Pos: pos}, nil
	case '>':
		if strings.HasPrefix(l.src[l.off:], ">=") {
			l.advance(2)
			return Token{Kind: TokOp, Text: ">=", Pos: pos}, nil
		}
		l.advance(1)
		return Token{Kind: TokOp, Text: ">", Pos: pos}, nil
	case '"':
		return l.lexString(pos)
	case '$':
		if !l.placeholders {
			return Token{}, errf(pos, "placeholders ($n) are only allowed in queries")
		}
		start := l.off
		l.advance(1)
		n := 0
		for l.off < len(l.src) && l.src[l.off] >= '0' && l.src[l.off] <= '9' {
			l.advance(1)
			n++
		}
		if n == 0 {
			return Token{}, errf(pos, "expected a number after '$' (placeholders are $1, $2, …)")
		}
		// "$n" can never collide with a source variable: user variables
		// start with an upper-case letter or '_'.
		return Token{Kind: TokVariable, Text: l.src[start:l.off], Pos: pos}, nil
	}
	if c >= '0' && c <= '9' || c == '-' && l.off+1 < len(l.src) && l.src[l.off+1] >= '0' && l.src[l.off+1] <= '9' {
		return l.lexNumber(pos)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	if isIdentStart(r) {
		return l.lexIdent(pos)
	}
	return Token{}, errf(pos, "unexpected character %q", r)
}

func (l *lexer) lexString(pos Pos) (Token, error) {
	l.advance(1) // opening quote
	var b strings.Builder
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch c {
		case '"':
			l.advance(1)
			return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
		case '\\':
			if l.off+1 >= len(l.src) {
				return Token{}, errf(pos, "unterminated string literal")
			}
			esc := l.src[l.off+1]
			switch esc {
			case '"', '\\':
				b.WriteByte(esc)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return Token{}, errf(l.pos(), "unknown escape \\%c in string", esc)
			}
			l.advance(2)
		case '\n':
			return Token{}, errf(pos, "unterminated string literal")
		default:
			r, sz := utf8.DecodeRuneInString(l.src[l.off:])
			if r == utf8.RuneError && sz == 1 {
				return Token{}, errf(l.pos(), "invalid UTF-8 in string literal")
			}
			if !unicode.IsPrint(r) {
				return Token{}, errf(l.pos(), "unprintable character %q in string literal (use \\n or \\t)", r)
			}
			b.WriteString(l.src[l.off : l.off+sz])
			l.advance(sz)
		}
	}
	return Token{}, errf(pos, "unterminated string literal")
}

func (l *lexer) lexNumber(pos Pos) (Token, error) {
	start := l.off
	if l.peekByte() == '-' {
		l.advance(1)
	}
	digits := func() int {
		n := 0
		for l.off < len(l.src) && l.src[l.off] >= '0' && l.src[l.off] <= '9' {
			l.advance(1)
			n++
		}
		return n
	}
	digits()
	// A '.' is part of the number only if followed by a digit; otherwise it
	// is the clause terminator (so `p(1).` lexes as NUMBER DOT).
	if l.peekByte() == '.' && l.off+1 < len(l.src) && l.src[l.off+1] >= '0' && l.src[l.off+1] <= '9' {
		l.advance(1)
		digits()
	}
	if b := l.peekByte(); b == 'e' || b == 'E' {
		save := l.off
		l.advance(1)
		if c := l.peekByte(); c == '+' || c == '-' {
			l.advance(1)
		}
		if digits() == 0 {
			// Not an exponent after all (e.g. `1e` then identifier); back off.
			l.off = save
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.off], Pos: pos}, nil
}

func (l *lexer) lexIdent(pos Pos) (Token, error) {
	start := l.off
	for l.off < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[l.off:])
		if !isIdentRune(r) {
			break
		}
		l.advance(sz)
	}
	text := l.src[start:l.off]
	first, _ := utf8.DecodeRuneInString(text)
	switch {
	case keywords[text]:
		return Token{Kind: TokKeyword, Text: text, Pos: pos}, nil
	case unicode.IsUpper(first) || first == '_':
		return Token{Kind: TokVariable, Text: text, Pos: pos}, nil
	default:
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	}
}

// lexAll tokenizes the whole input; used by tests.
func lexAll(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
