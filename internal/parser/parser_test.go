package parser

import (
	"strings"
	"testing"

	"kdb/internal/term"
)

func mustProgram(t *testing.T, src string) *Program {
	t.Helper()
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram(%q): %v", src, err)
	}
	return p
}

func mustQuery(t *testing.T, src string) Query {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

func TestParseFact(t *testing.T) {
	p := mustProgram(t, `student(ann, math, 3.9).`)
	if len(p.Clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(p.Clauses))
	}
	r := p.Clauses[0]
	want := term.NewAtom("student", term.Sym("ann"), term.Sym("math"), term.Num(3.9))
	if !r.Head.Equal(want) || len(r.Body) != 0 {
		t.Errorf("parsed %v, want fact %v", r, want)
	}
	if !r.IsFact() {
		t.Error("must be a fact")
	}
}

func TestParseRule(t *testing.T) {
	p := mustProgram(t, `honor(X) :- student(X, Y, Z), Z > 3.7.`)
	r := p.Clauses[0]
	if got, want := r.String(), "honor(X) :- student(X, Y, Z), Z > 3.7."; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
	if !r.Body[1].Equal(term.NewAtom(">", term.Var("Z"), term.Num(3.7))) {
		t.Errorf("comparison = %v", r.Body[1])
	}
}

func TestParseRecursiveRules(t *testing.T) {
	src := `
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
`
	p := mustProgram(t, src)
	if len(p.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(p.Clauses))
	}
	if p.Clauses[1].Body[1].Pred != "prior" {
		t.Errorf("recursive call = %v", p.Clauses[1].Body[1])
	}
}

func TestParsePropositionalAndZeroArg(t *testing.T) {
	p := mustProgram(t, `ok. ready :- ok.`)
	if p.Clauses[0].Head.Arity() != 0 || p.Clauses[1].Body[0].Pred != "ok" {
		t.Errorf("parsed %v", p.Clauses)
	}
}

func TestParseInfixComparisonForms(t *testing.T) {
	// Comparisons may appear with any term on either side.
	p := mustProgram(t, `p(X) :- q(X, Y), 3 < Y, X != Y, databases = X, "s" = X.`)
	b := p.Clauses[0].Body
	if b[1].Pred != "<" || b[1].Args[0] != term.Num(3) {
		t.Errorf("3 < Y parsed as %v", b[1])
	}
	if b[2].Pred != "!=" {
		t.Errorf("X != Y parsed as %v", b[2])
	}
	if b[3].Pred != "=" || b[3].Args[0] != term.Sym("databases") {
		t.Errorf("databases = X parsed as %v", b[3])
	}
	if b[4].Args[0] != term.Str("s") {
		t.Errorf("string comparison parsed as %v", b[4])
	}
}

func TestParseDeclarations(t *testing.T) {
	p := mustProgram(t, `
@key student/3 1.
@key complete/4 1 2 3.
@name prior_step chain.
student(ann, math, 3.9).
`)
	if len(p.Declarations) != 3 || len(p.Clauses) != 1 {
		t.Fatalf("decls=%d clauses=%d", len(p.Declarations), len(p.Clauses))
	}
	d := p.Declarations[0]
	if d.Kind != DeclKey || d.Pred != "student" || d.Arity != 3 || len(d.Columns) != 1 || d.Columns[0] != 1 {
		t.Errorf("decl 0 = %+v", d)
	}
	if got, want := d.String(), "@key student/3 1."; got != want {
		t.Errorf("decl String = %q, want %q", got, want)
	}
	d2 := p.Declarations[1]
	if len(d2.Columns) != 3 {
		t.Errorf("decl 1 = %+v", d2)
	}
	d3 := p.Declarations[2]
	if d3.Kind != DeclName || d3.Pred != "prior_step" || d3.Name != "chain" {
		t.Errorf("decl 2 = %+v", d3)
	}
	if got, want := d3.String(), "@name prior_step chain."; got != want {
		t.Errorf("decl String = %q, want %q", got, want)
	}
}

func TestParseDeclarationErrors(t *testing.T) {
	for _, bad := range []string{
		`@key student/3.`,        // no columns
		`@key student/3 4.`,      // column out of range
		`@key student/3 0.`,      // column out of range
		`@key student/x 1.`,      // bad arity
		`@frobnicate student/3.`, // unknown declaration
		`@name only_one.`,        // missing name
	} {
		if _, err := ParseProgram(bad); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", bad)
		}
	}
}

func TestParseRetrieve(t *testing.T) {
	q := mustQuery(t, `retrieve honor(X) where enroll(X, databases).`)
	r, ok := q.(*Retrieve)
	if !ok {
		t.Fatalf("parsed %T, want *Retrieve", q)
	}
	if r.Subject.Pred != "honor" || len(r.Where) != 1 || r.Where[0].Pred != "enroll" {
		t.Errorf("parsed %+v", r)
	}
	if got, want := r.String(), "retrieve honor(X) where enroll(X, databases)."; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestParseRetrieveExample2(t *testing.T) {
	// Paper Example 2: an ad-hoc subject predicate.
	q := mustQuery(t, `retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`)
	r := q.(*Retrieve)
	if r.Subject.Pred != "answer" || len(r.Where) != 3 {
		t.Errorf("parsed %+v", r)
	}
}

func TestParseRetrieveNoWhere(t *testing.T) {
	q := mustQuery(t, `retrieve honor(X).`)
	r := q.(*Retrieve)
	if len(r.Where) != 0 {
		t.Errorf("where = %v, want empty", r.Where)
	}
	if got, want := r.String(), "retrieve honor(X)."; got != want {
		t.Errorf("round trip = %q", got)
	}
}

func TestParseDescribe(t *testing.T) {
	q := mustQuery(t, `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`)
	d, ok := q.(*Describe)
	if !ok {
		t.Fatalf("parsed %T, want *Describe", q)
	}
	if d.Subject.Pred != "can_ta" || len(d.Where) != 2 || d.Necessary || d.Wildcard || d.Subjectless {
		t.Errorf("parsed %+v", d)
	}
	if got, want := d.String(), "describe can_ta(X, databases) where student(X, math, V) and V > 3.7."; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestParseDescribeNecessary(t *testing.T) {
	q := mustQuery(t, `describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3.`)
	d := q.(*Describe)
	if !d.Necessary || len(d.Where) != 2 {
		t.Errorf("parsed %+v", d)
	}
	if !strings.Contains(d.String(), "where necessary ") {
		t.Errorf("round trip = %q", d.String())
	}
}

func TestParseDescribeNot(t *testing.T) {
	q := mustQuery(t, `describe can_ta(X, Y) where not honor(X).`)
	d := q.(*Describe)
	if len(d.Where) != 0 || len(d.Not) != 1 || d.Not[0].Pred != "honor" {
		t.Errorf("parsed %+v", d)
	}
	if got, want := d.String(), "describe can_ta(X, Y) where not honor(X)."; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
	// Mixed positive and negative conjuncts.
	q2 := mustQuery(t, `describe can_ta(X, Y) where teach(susan, Y) and not honor(X).`)
	d2 := q2.(*Describe)
	if len(d2.Where) != 1 || len(d2.Not) != 1 {
		t.Errorf("parsed %+v", d2)
	}
}

func TestParseDescribeSubjectless(t *testing.T) {
	q := mustQuery(t, `describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`)
	d := q.(*Describe)
	if !d.Subjectless || len(d.Where) != 3 {
		t.Errorf("parsed %+v", d)
	}
	if !strings.HasPrefix(d.String(), "describe where ") {
		t.Errorf("round trip = %q", d.String())
	}
	if _, err := ParseQuery(`describe.`); err == nil {
		t.Error("subjectless describe without where must fail")
	}
}

func TestParseDescribeWildcard(t *testing.T) {
	q := mustQuery(t, `describe * where honor(X).`)
	d := q.(*Describe)
	if !d.Wildcard || len(d.Where) != 1 {
		t.Errorf("parsed %+v", d)
	}
	if got, want := d.String(), "describe * where honor(X)."; got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestParseDescribeNoWhere(t *testing.T) {
	// Paper Example 4: describe honor(X).
	q := mustQuery(t, `describe honor(X).`)
	d := q.(*Describe)
	if len(d.Where) != 0 || d.Subjectless {
		t.Errorf("parsed %+v", d)
	}
}

func TestParseCompare(t *testing.T) {
	q := mustQuery(t, `compare (describe honor(X)) with (describe deans_list(X) where student(X, math, V)).`)
	c, ok := q.(*Compare)
	if !ok {
		t.Fatalf("parsed %T, want *Compare", q)
	}
	if c.Left.Subject.Pred != "honor" || c.Right.Subject.Pred != "deans_list" {
		t.Errorf("parsed %+v", c)
	}
	if len(c.Right.Where) != 1 {
		t.Errorf("right where = %v", c.Right.Where)
	}
	want := `compare (describe honor(X)) with (describe deans_list(X) where student(X, math, V)).`
	if got := c.String(); got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestParseQueries(t *testing.T) {
	qs, err := ParseQueries(`
retrieve honor(X).
describe honor(X).
compare (describe honor(X)) with (describe deans_list(X)).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("queries = %d, want 3", len(qs))
	}
	if _, ok := qs[0].(*Retrieve); !ok {
		t.Errorf("query 0 = %T", qs[0])
	}
	if _, ok := qs[2].(*Compare); !ok {
		t.Errorf("query 2 = %T", qs[2])
	}
}

func TestParseAtomAndFormula(t *testing.T) {
	a, err := ParseAtom(`student(X, math, 3.9)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "student" || a.Args[0] != term.Var("X") {
		t.Errorf("ParseAtom = %v", a)
	}
	f, err := ParseFormula(`student(X, Y, Z) and Z > 3.7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 || f[1].Pred != ">" {
		t.Errorf("ParseFormula = %v", f)
	}
	if _, err := ParseAtom(`student(X,`); err == nil {
		t.Error("truncated atom must fail")
	}
	if _, err := ParseFormula(`p(X) and`); err == nil {
		t.Error("truncated formula must fail")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`student(ann, math, 3.9)`,                               // missing dot
		`:- p(X).`,                                              // missing head
		`X > 3 :- p(X).`,                                        // comparison head
		`retrieve X > 3.`,                                       // comparison subject (lexes as retrieve X > 3.0 missing dot… still error)
		`retrieve honor(X) where not p(X).`,                     // not in retrieve
		`describe honor(X) where p(X) q(X).`,                    // missing and
		`compare describe honor(X) with (describe h(X)).`,       // missing parens
		`compare (describe * where p(X)) with (describe h(X)).`, // wildcard in compare
		`flarb honor(X).`,                                       // unknown statement
		`retrieve honor(X) where true and.`,                     // dangling and
		`p(X) :- .`,                                             // empty body
	}
	for _, bad := range cases {
		if _, err := ParseQuery(bad); err == nil {
			if _, err2 := ParseProgram(bad); err2 == nil {
				t.Errorf("both ParseQuery and ParseProgram accepted %q", bad)
			}
		}
	}
}

// TestRetrieveShapedErrors pins the errors of the three retrieve-shaped
// statements, which share one parser.
func TestRetrieveShapedErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`retrieve X > 3 .`, `1:1: the subject of retrieve cannot be a comparison`},
		{`retrieve honor(X) where not p(X).`, `1:25: 'not' is not allowed here`},
		{`retrieve honor(X) where p(X) or q(X) and not r(X).`, `1:42: 'not' is not allowed here`},
		{`retrieve honor(X) or q(X).`, `1:19: expected '.', found "or"`},
		{`explain X < Y .`, `1:1: the subject of explain cannot be a comparison`},
		{`explain honor(X) where p(X) and not q(X).`, `1:33: 'not' is not allowed here`},
		{`explain honor(X) where p(X) or q(X).`, `1:1: 'or' is not allowed in explain qualifiers`},
		{`profile X > 3 .`, `1:1: the subject of profile cannot be a comparison`},
		{`profile honor(X) where not p(X).`, `1:24: 'not' is not allowed here`},
		{`profile honor(X) where p(X) or not q(X).`, `1:1: 'or' is not allowed in profile qualifiers`},
	}
	for _, c := range cases {
		_, err := ParseQuery(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.src, err, c.want)
		}
	}
}

func TestParseTrueQualifier(t *testing.T) {
	// `where true` is the explicit empty hypothesis.
	q := mustQuery(t, `describe honor(X) where true.`)
	d := q.(*Describe)
	if len(d.Where) != 0 && len(d.Not) != 0 {
		t.Errorf("parsed %+v", d)
	}
}

func TestParseReservedWordAsPredicate(t *testing.T) {
	if _, err := ParseProgram(`where(a).`); err == nil {
		t.Error("reserved word as predicate must fail")
	}
}

func TestParseStringArgsRoundTrip(t *testing.T) {
	p := mustProgram(t, `professor(susan, cs, "x5-1212").`)
	got := p.Clauses[0].String()
	want := `professor(susan, cs, "x5-1212").`
	if got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestParseLargeProgramRoundTrip(t *testing.T) {
	src := `
student(ann, math, 3.9).
student(bob, cs, 3.5).
professor(susan, cs, "x5-1212").
course(databases, 4).
enroll(ann, databases).
teach(susan, databases).
prereq(databases, datastructures).
taught(susan, databases, f89, 3.5).
complete(ann, databases, f89, 4).
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`
	p := mustProgram(t, src)
	if len(p.Clauses) != 14 {
		t.Fatalf("clauses = %d, want 14", len(p.Clauses))
	}
	// Re-parse the rendered program; must yield identical clauses.
	var b strings.Builder
	for _, c := range p.Clauses {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	p2 := mustProgram(t, b.String())
	if len(p2.Clauses) != len(p.Clauses) {
		t.Fatalf("re-parse clauses = %d", len(p2.Clauses))
	}
	for i := range p.Clauses {
		if !p.Clauses[i].Equal(p2.Clauses[i]) {
			t.Errorf("clause %d: %v != %v", i, p.Clauses[i], p2.Clauses[i])
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := ParseProgram("p(a).\nq(b) :- r(c)\ns(d).")
	if err == nil {
		t.Fatal("want error for missing dot")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Pos.Line != 3 {
		t.Errorf("error line = %d, want 3 (%v)", perr.Pos.Line, err)
	}
}

func BenchmarkParseProgram(b *testing.B) {
	src := strings.Repeat(`can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
student(ann, math, 3.9).
`, 200)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseQuery(b *testing.B) {
	const q = `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}
