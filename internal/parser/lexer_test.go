package parser

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicClause(t *testing.T) {
	toks, err := lexAll(`honor(X) :- student(X, Y, Z), Z > 3.7.`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokIdent, TokLParen, TokVariable, TokRParen, TokColonDash,
		TokIdent, TokLParen, TokVariable, TokComma, TokVariable, TokComma, TokVariable, TokRParen,
		TokComma, TokVariable, TokOp, TokNumber, TokDot, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], toks)
		}
	}
	if toks[16].Text != "3.7" {
		t.Errorf("number token = %q, want 3.7", toks[16].Text)
	}
}

func TestLexNumberVsDot(t *testing.T) {
	// `p(1).` must lex the 1 and the terminator separately.
	toks, err := lexAll(`p(1).`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != TokNumber || toks[2].Text != "1" {
		t.Errorf("want number 1, got %v", toks[2])
	}
	if toks[4].Kind != TokDot {
		t.Errorf("want dot, got %v", toks[4])
	}
	// Decimals, negatives, exponents.
	for _, c := range []struct{ in, out string }{
		{"3.75", "3.75"}, {"-2", "-2"}, {"-2.5", "-2.5"},
		{"1e3", "1e3"}, {"1.5e-2", "1.5e-2"}, {"4", "4"},
	} {
		toks, err := lexAll(c.in)
		if err != nil {
			t.Fatalf("lex %q: %v", c.in, err)
		}
		if toks[0].Kind != TokNumber || toks[0].Text != c.out {
			t.Errorf("lex %q = %v, want number %q", c.in, toks[0], c.out)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lexAll("% a comment\np(a). % trailing\n% final")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokIdent, TokLParen, TokIdent, TokRParen, TokDot, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := lexAll(`name(X, "Susan B.\n\"Q\"").`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[4].Kind != TokString || toks[4].Text != "Susan B.\n\"Q\"" {
		t.Errorf("string token = %#v", toks[4])
	}
	for _, bad := range []string{`"abc`, `"ab` + "\n" + `c"`, `"\q"`} {
		if _, err := lexAll(bad); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", bad)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lexAll(`= != < <= > >=`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"=", "!=", "<", "<=", ">", ">="}
	for i, w := range want {
		if toks[i].Kind != TokOp || toks[i].Text != w {
			t.Errorf("token %d = %v, want op %q", i, toks[i], w)
		}
	}
}

func TestLexKeywordsAndVariables(t *testing.T) {
	toks, err := lexAll(`retrieve describe compare with where and not necessary true X _tmp Abc foo`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if toks[i].Kind != TokKeyword {
			t.Errorf("token %d = %v, want keyword", i, toks[i])
		}
	}
	for i := 9; i < 12; i++ {
		if toks[i].Kind != TokVariable {
			t.Errorf("token %d = %v, want variable", i, toks[i])
		}
	}
	if toks[12].Kind != TokIdent {
		t.Errorf("token 12 = %v, want identifier", toks[12])
	}
	if !IsReserved("where") || IsReserved("student") {
		t.Error("IsReserved misbehaves")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("p(a).\n  q(b).")
	if err != nil {
		t.Fatal(err)
	}
	q := toks[5]
	if q.Pos.Line != 2 || q.Pos.Col != 3 {
		t.Errorf("q position = %v, want 2:3", q.Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{`p :- q ; r.`, `p : q.`, `a ! b`, "#"} {
		if _, err := lexAll(bad); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", bad)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("error %q lacks a position", err)
		}
	}
}

func TestLexDeclTokens(t *testing.T) {
	toks, err := lexAll(`@key student/3 1.`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokAt, TokIdent, TokIdent, TokSlash, TokNumber, TokNumber, TokDot, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexStar(t *testing.T) {
	toks, err := lexAll(`describe * where p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokStar {
		t.Errorf("token 1 = %v, want star", toks[1])
	}
}

func BenchmarkLex(b *testing.B) {
	src := strings.Repeat("can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).\n", 100)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lexAll(src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIsSymbolName(t *testing.T) {
	for _, c := range []struct {
		s    string
		want bool
	}{
		{"", false},
		{"where", false},   // reserved word
		{"profile", false}, // reserved word
		{"Ann", false},     // upper-case start reads as a variable
		{"_tmp", false},    // so does an underscore start
		{"9lives", false},
		{"ann", true},
		{"a", true},
		{"cs101", true},
		{"can_ta", true},
		{"mixedCase_9", true},
		{"ann smith", false},
		{"a-b", false},
		{"émile", false}, // non-ASCII start
		{"café", false},  // non-ASCII tail
	} {
		if got := IsSymbolName(c.s); got != c.want {
			t.Errorf("IsSymbolName(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}
