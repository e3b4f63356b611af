package kdb_test

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdb"
	"kdb/internal/parser"
)

func loadUniversity(t testing.TB) *kdb.KB {
	t.Helper()
	k := kdb.New()
	if err := k.LoadFile("testdata/university.kdb"); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func loadRoutes(t testing.TB) *kdb.KB {
	t.Helper()
	k := kdb.New()
	if err := k.LoadFile("testdata/routes.kdb"); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func exec(t testing.TB, k *kdb.KB, q string) string {
	t.Helper()
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res.String()
}

func TestPublicAPIQuickstart(t *testing.T) {
	k := kdb.New()
	if err := k.LoadString(`
student(ann, math, 3.9).
honor(X) :- student(X, M, G), G > 3.7.
`); err != nil {
		t.Fatal(err)
	}
	if got := exec(t, k, `retrieve honor(X).`); got != "honor(ann)" {
		t.Errorf("retrieve = %q", got)
	}
	if got := exec(t, k, `describe honor(X).`); got != "honor(X) <- student(X, M, G) and G > 3.7" {
		t.Errorf("describe = %q", got)
	}
}

func TestPublicAPITermConstructors(t *testing.T) {
	a := kdb.NewAtom("student", kdb.Var("X"), kdb.Sym("math"), kdb.Num(3.9))
	if a.String() != "student(X, math, 3.9)" {
		t.Errorf("atom = %q", a)
	}
	s := kdb.Str("hello")
	if s.String() != `"hello"` {
		t.Errorf("str = %q", s)
	}
	f, err := kdb.ParseFormula(`student(X, M, G) and G > 3.7`)
	if err != nil || len(f) != 2 {
		t.Errorf("formula = %v, %v", f, err)
	}
	at, err := kdb.ParseAtom(`honor(X)`)
	if err != nil || at.Pred != "honor" {
		t.Errorf("atom = %v, %v", at, err)
	}
	qs, err := kdb.ParseQueries(`retrieve honor(X). describe honor(X).`)
	if err != nil || len(qs) != 2 {
		t.Errorf("queries = %v, %v", qs, err)
	}
	p, err := kdb.ParseProgram(`p(a).`)
	if err != nil || len(p.Clauses) != 1 {
		t.Errorf("program = %v, %v", p, err)
	}
}

// TestPublicAPINumbersByBits: asserted numbers keep the identity their
// relations and the codec keep — a NaN joins with itself, and -0 does
// not join with 0 — also where an index on another column serves the
// probe. A comparison orders no number against a NaN, and = and != on
// a NaN follow that identity.
func TestPublicAPINumbersByBits(t *testing.T) {
	k := kdb.New()
	nan, negZero := kdb.Num(math.NaN()), kdb.Num(math.Copysign(0, -1))
	for _, a := range []kdb.Atom{
		kdb.NewAtom("p", nan, kdb.Sym("a")), kdb.NewAtom("q", nan),
		kdb.NewAtom("r", kdb.Num(0), kdb.Sym("a"), kdb.Sym("b")), kdb.NewAtom("s", negZero),
		kdb.NewAtom("t", nan), kdb.NewAtom("t", kdb.Num(5)),
	} {
		if err := k.Assert(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ query, want string }{
		{`retrieve p(X, Y) where q(X).`, "p(NaN, a)"},
		{`retrieve r(X, Y, b).`, "r(0, a, b)"}, // builds the index on r's third column
		{`retrieve r(X, Y, b) where s(X).`, "no answers"},
		{`retrieve s(X) where r(X, Y, b).`, "no answers"},
		// No number orders against a NaN; = is identity, != its negation.
		{`retrieve t(X) where X >= 7.`, "no answers"},
		{`retrieve t(X) where X < 7.`, "t(5)"},
		{`retrieve t(X) where X != 5.`, "t(NaN)"},
		{`retrieve t(X) where X = 5.`, "t(5)"},
		{`retrieve t(X) where q(Y) and X != Y.`, "t(5)"},
		{`retrieve t(X) where q(Y) and X <= Y.`, "no answers"},
	} {
		if got := exec(t, k, c.query); got != c.want {
			t.Errorf("%s = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestPublicAPIDescribeNaN: a NaN, which only the API can write, orders
// against nothing. A hypothesis pinning X to it contradicts X <= 7, as
// retrieve finds no answer, rather than describing w(X) <- t(X).
func TestPublicAPIDescribeNaN(t *testing.T) {
	k := kdb.New()
	if err := k.LoadString(`w(X) :- t(X), X <= 7.`); err != nil {
		t.Fatal(err)
	}
	for _, a := range []kdb.Atom{kdb.NewAtom("t", kdb.Num(math.NaN())), kdb.NewAtom("t", kdb.Num(5))} {
		if err := k.Assert(a); err != nil {
			t.Fatal(err)
		}
	}
	// withNaN parses src and puts a NaN in place of its qualifier's 12345.
	withNaN := func(src string) kdb.Query {
		q, err := kdb.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		var where kdb.Formula
		switch q := q.(type) {
		case *parser.Describe:
			where = q.Where
		case *parser.Retrieve:
			where = q.Where
		}
		for _, a := range where {
			for i, x := range a.Args {
				if x == kdb.Num(12345) {
					a.Args[i] = kdb.Num(math.NaN())
				}
			}
		}
		return q
	}
	for _, c := range []struct{ query, want string }{
		{`describe w(X) where X = 12345.`, "false (the hypothesis contradicts the knowledge base)"},
		{`retrieve w(X) where X = 12345.`, "no answers"},
		{`describe w(X) where X != 12345.`, "w(X) <- t(X) and X <= 7"},
		{`describe w(X) where X = 5.`, "w(X) <- t(X)"},
	} {
		res, err := k.ExecContext(context.Background(), withNaN(c.query))
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := res.String(); got != c.want {
			t.Errorf("%s (12345 a NaN) = %q, want %q", c.query, got, c.want)
		}
	}
}

func TestUniversityEndToEnd(t *testing.T) {
	k := loadUniversity(t)
	cases := []struct {
		query, want string
	}{
		{`retrieve honor(X) where enroll(X, databases).`, "honor(ann)\nhonor(dan)"},
		{`describe honor(X).`, "honor(X) <- student(X, Y, Z) and Z > 3.7"},
		{`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			"can_ta(X, databases) <- complete(X, databases, Z, U) and U > 3.3 and taught(V1, databases, Z, W) and teach(V1, databases)\n" +
				"can_ta(X, databases) <- complete(X, databases, Z, 4)"},
		{`describe prior(X, Y) where prior(databases, Y).`,
			"prior(X, Y) <- X = databases\nprior(X, Y) <- prior(X, databases)"},
	}
	for _, c := range cases {
		got := exec(t, k, c.query)
		// Compare as line sets (describe answer order is derivation order).
		if !sameLines(got, c.want) {
			t.Errorf("%s\n got: %q\nwant: %q", c.query, got, c.want)
		}
	}
}

func sameLines(a, b string) bool {
	la := strings.Split(a, "\n")
	lb := strings.Split(b, "\n")
	if len(la) != len(lb) {
		return false
	}
	seen := make(map[string]int)
	for _, l := range la {
		seen[l]++
	}
	for _, l := range lb {
		seen[l]--
		if seen[l] < 0 {
			return false
		}
	}
	return true
}

func TestRoutesIntroQueries(t *testing.T) {
	k := loadRoutes(t)
	// "List all points reachable from la."
	got := exec(t, k, `retrieve reachable(la, Y).`)
	for _, city := range []string{"sf", "sea", "chi", "ny", "dal", "la"} {
		if !strings.Contains(got, "reachable(la, "+city+")") {
			t.Errorf("la should reach %s: %q", city, got)
		}
	}
	// "Do you know how to get from any point to any other point?" —
	// a definition of reachability is available:
	got = exec(t, k, `describe reachable(X, Y).`)
	if !strings.Contains(got, "flight") {
		t.Errorf("describe reachable = %q", got)
	}
	// Knowledge query on the recursive concept.
	got = exec(t, k, `describe reachable(X, Y) where reachable(la, Y).`)
	if !sameLines(got, "reachable(X, Y) <- X = la\nreachable(X, Y) <- reachable(X, la)") {
		t.Errorf("= %q", got)
	}
	// "Must every roundtrip endpoint be reachable both ways?" via not:
	res, err := k.ExecStringContext(context.Background(), `describe roundtrip(X, Y) where not reachable(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Necessity == nil || res.Necessity.Possible {
		t.Errorf("reachability is necessary for a roundtrip: %v", res)
	}
}

// TestCanceledContextStopsEveryStatement: every statement form answers
// under a live context and returns ErrCanceled under a canceled one —
// the §6 verdicts, whose unfolding never consults the context, included —
// and so under per-request limits attached to the canceled context.
func TestCanceledContextStopsEveryStatement(t *testing.T) {
	k := loadUniversity(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	limited := kdb.ContextWithQueryLimits(canceled, kdb.QueryLimits{MaxFacts: 1 << 20})
	for _, c := range []struct{ form, stmt string }{
		{"retrieve", `retrieve honor(X).`},
		{"or-retrieve", `retrieve honor(X) where enroll(X, databases) or enroll(X, calculus).`},
		{"profile", `profile honor(X).`},
		{"explain", `explain honor(ann).`},
		{"describe", `describe honor(X).`},
		{"necessary", `describe honor(X) where necessary student(X, math, V) and V > 3.7.`},
		{"or-describe", `describe honor(X) where enroll(X, databases) or enroll(X, calculus).`},
		{"wildcard", `describe * where honor(X).`},
		{"subjectless", `describe where student(X, Y, Z) and Z > 3.8 and can_ta(X, U).`},
		{"not", `describe can_ta(X, Y) where not honor(X).`},
		{"compare", `compare (describe honor(X)) with (describe deans_list(X)).`},
	} {
		t.Run(c.form, func(t *testing.T) {
			if _, err := k.ExecStringContext(context.Background(), c.stmt); err != nil {
				t.Fatalf("live context: %v", err)
			}
			if _, err := k.ExecStringContext(canceled, c.stmt); !errors.Is(err, kdb.ErrCanceled) {
				t.Errorf("canceled context: err = %v, want kdb.ErrCanceled", err)
			}
			if _, err := k.ExecStringContext(limited, c.stmt); !errors.Is(err, kdb.ErrCanceled) {
				t.Errorf("canceled context with limits: err = %v, want kdb.ErrCanceled", err)
			}
		})
	}
}

// TestCanceledConstraintCheck: the constraint check, which is not a
// statement, stops on a canceled context like one.
func TestCanceledConstraintCheck(t *testing.T) {
	k := kdb.New()
	if err := k.LoadString("enroll(bob, db).\nsuspended(bob).\n:- enroll(X, C), suspended(X).\n"); err != nil {
		t.Fatal(err)
	}
	if v, err := k.CheckConstraintsContext(context.Background()); err != nil || len(v) != 1 {
		t.Fatalf("live context: %d violations, err = %v; want 1, nil", len(v), err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := k.CheckConstraintsContext(canceled); !errors.Is(err, kdb.ErrCanceled) {
		t.Errorf("canceled context: err = %v, want kdb.ErrCanceled", err)
	}
}

// TestCanceledCheckpointWritesNoSnapshot: a checkpoint under a canceled
// context returns ErrCanceled, as a statement does, and leaves the WAL
// unfolded; a live one then writes the snapshot.
func TestCanceledCheckpointWritesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	k, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.LoadString(`flight(la, sf).`); err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(dir, "kdb.snap")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := k.CheckpointContext(canceled); !errors.Is(err, kdb.ErrCanceled) {
		t.Errorf("canceled context: err = %v, want kdb.ErrCanceled", err)
	}
	if _, err := os.Stat(snapshot); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a canceled checkpoint left a snapshot: stat err = %v", err)
	}
	if err := k.CheckpointContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	if _, err := os.Stat(snapshot); err != nil {
		t.Errorf("a checkpoint wrote no snapshot: %v", err)
	}
}

func TestDurablePublicAPI(t *testing.T) {
	dir := t.TempDir()
	k, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString(`flight(la, sf).`); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.FactCount() != 1 {
		t.Errorf("recovered %d facts", k2.FactCount())
	}
}

func TestDescribeOptionsPublicAPI(t *testing.T) {
	k := loadRoutes(t)
	k.SetDescribeOptions(kdb.DescribeOptions{KeepSteps: true})
	got := exec(t, k, `describe reachable(X, Y) where reachable(la, Y).`)
	if !strings.Contains(got, "leg(la, X)") {
		t.Errorf("@name display expected: %q", got)
	}
}
