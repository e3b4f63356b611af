package kb

import (
	"context"
	"strings"
	"testing"

	"kdb/internal/obs"
	"kdb/internal/parser"
)

// Tests for the §6 research-direction features: disjunctive qualifiers
// and intensional answers to data queries.

func TestRetrieveOr(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `retrieve student(X, M, G) where M = math or G >= 4.`)
	for _, want := range []string{
		"student(ann, math, 3.9)",
		"student(cora, math, 3.8)",
		"student(dan, cs, 4)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
	if strings.Contains(got, "bob") {
		t.Errorf("bob (cs, 3.5) matches neither disjunct: %q", got)
	}
	// Union must deduplicate overlapping disjuncts.
	got = execStr(t, k, `retrieve honor(X) where enroll(X, databases) or student(X, math, G).`)
	if strings.Count(got, "honor(ann)") != 1 {
		t.Errorf("ann satisfies both disjuncts but must appear once: %q", got)
	}
}

func TestRetrieveOrThreeDisjuncts(t *testing.T) {
	k := loadKB(t, universityKB)
	got := execStr(t, k, `retrieve course(C, U) where C = datastructures or C = programming or U = 4.`)
	for _, want := range []string{"datastructures", "programming", "databases"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestDescribeOrIntersection(t *testing.T) {
	k := loadKB(t, universityKB)
	// Under EITHER hypothesis — completed with a 4.0, or an honor student
	// with Susan teaching — only formulas valid under BOTH qualify.
	// can_ta's 4.0 route holds under the first but needs honor under the
	// second... so nothing survives both; whereas with two hypotheses that
	// each make the whole honor subtree available, the common answers
	// survive.
	got := execStr(t, k, `describe honor(X) where student(X, math, V) and V > 3.8 or student(X, cs, V) and V > 3.9.`)
	// Both disjuncts imply the GPA bound, so under each the answer is
	// `honor(X) <- true`: the intersection keeps it.
	if got != "honor(X) <- true" {
		t.Errorf("= %q", got)
	}
	// If one disjunct does NOT imply the bound, `<- true` fails on it and
	// the intersection moves to the weaker common ground.
	got = execStr(t, k, `describe honor(X) where student(X, math, V) and V > 3.8 or student(X, cs, V) and V > 3.5.`)
	if got != "honor(X) <- V > 3.7" {
		t.Errorf("= %q", got)
	}
}

func TestDescribeOrSkipsContradictoryDisjunct(t *testing.T) {
	k := loadKB(t, universityKB)
	// The first disjunct contradicts honor's GPA requirement: it is
	// impossible, so the answer is determined by the second alone.
	got := execStr(t, k, `describe honor(X) where student(X, math, V) and V < 3 or student(X, cs, V) and V > 3.8.`)
	if got != "honor(X) <- true" {
		t.Errorf("= %q", got)
	}
	// All disjuncts contradictory → the special answer.
	got = execStr(t, k, `describe honor(X) where student(X, math, V) and V < 3 or student(X, cs, V) and V < 2.`)
	if !strings.Contains(got, "contradicts") {
		t.Errorf("= %q", got)
	}
}

func TestDescribeOrDisjointAnswersIntersectEmpty(t *testing.T) {
	k := loadKB(t, `
a(X) :- p(X).
a(X) :- q(X).
`)
	// Under p the answer is `a <- true` via rule 1; under q via rule 2;
	// both produce `a(X) <- true`, which therefore survives.
	got := execStr(t, k, `describe a(X) where p(X) or q(X).`)
	if got != "a(X) <- true" {
		t.Errorf("= %q", got)
	}
	// Under p vs under r: r cannot participate in any derivation of a, so
	// that disjunct degrades to the definition listing (§6's remark), and
	// the intersection is exactly the definition — sound under any
	// hypothesis. `a <- true` does NOT survive: it is not valid under r.
	got = execStr(t, k, `describe a(X) where p(X) or r(X).`)
	if got != "a(X) <- p(X)\na(X) <- q(X)" {
		t.Errorf("= %q", got)
	}
}

func TestOrParserRestrictions(t *testing.T) {
	k := loadKB(t, universityKB)
	for _, q := range []string{
		`describe honor(X) where necessary p(X) or q(X).`,
		`describe honor(X) where not p(X) or q(X).`,
		`describe * where p(X) or q(X).`,
		`describe where p(X) or q(X).`,
		`retrieve honor(X) where not p(X) or q(X).`,
	} {
		if _, err := k.ExecStringContext(context.Background(), q); err == nil {
			t.Errorf("%q must be rejected", q)
		}
	}
}

func TestOrRoundTrip(t *testing.T) {
	q, err := parser.ParseQuery(`retrieve p(X) where a(X) or b(X) and c(X).`)
	if err != nil {
		t.Fatal(err)
	}
	r := q.(*parser.Retrieve)
	if len(r.Or) != 1 || len(r.Where) != 1 || len(r.Or[0]) != 2 {
		t.Fatalf("parsed %+v", r)
	}
	want := `retrieve p(X) where a(X) or b(X) and c(X).`
	if got := r.String(); got != want {
		t.Errorf("round trip = %q, want %q", got, want)
	}
	q2, err := parser.ParseQuery(`describe p(X) where a(X) or b(X).`)
	if err != nil {
		t.Fatal(err)
	}
	d := q2.(*parser.Describe)
	if len(d.Disjuncts()) != 2 {
		t.Fatalf("disjuncts = %v", d.Disjuncts())
	}
	if got := d.String(); got != `describe p(X) where a(X) or b(X).` {
		t.Errorf("round trip = %q", got)
	}
}

func TestIntensionalAnswers(t *testing.T) {
	k := loadKB(t, universityKB)
	k.SetIntensional(true)
	res, err := k.ExecStringContext(context.Background(), `retrieve honor(X) where enroll(X, databases).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge == nil {
		t.Fatal("intensional mode must attach knowledge")
	}
	got := res.String()
	if !strings.Contains(got, "honor(ann)") {
		t.Errorf("extension missing: %q", got)
	}
	if !strings.Contains(got, "because:") || !strings.Contains(got, "honor(X) <- student(X, Y, Z) and Z > 3.7") {
		t.Errorf("knowledge missing: %q", got)
	}
	// EDB subjects have no intensional part, and the query still works.
	res, err = k.ExecStringContext(context.Background(), `retrieve student(X, math, G).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge != nil {
		t.Errorf("EDB subject must not attach knowledge: %v", res.Knowledge)
	}
	// Switching off restores plain answers.
	k.SetIntensional(false)
	res, err = k.ExecStringContext(context.Background(), `retrieve honor(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge != nil {
		t.Error("intensional off must not attach knowledge")
	}
}

// TestOrDescribeCountsEveryDisjunctsNodes: a disjunctive describe's
// record sums the search nodes of its disjuncts, each described one at a
// time, and so does kdb_describe_nodes_total, which reads the record.
func TestOrDescribeCountsEveryDisjunctsNodes(t *testing.T) {
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg))
	if err := k.LoadFile("../../testdata/university.kdb"); err != nil {
		t.Fatal(err)
	}
	nodesOf := func(stmt string) int {
		t.Helper()
		res, err := k.ExecStringContext(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res.Describe.Nodes
	}
	metric := func() (n float64) {
		for _, p := range reg.Snapshot() {
			if p.Name == "kdb_describe_nodes_total" {
				n += p.Value
			}
		}
		return n
	}
	student, enroll := `student(X, M, G)`, `enroll(X, C)`
	one, other := nodesOf(`describe honor(X) where `+student+`.`), nodesOf(`describe honor(X) where `+enroll+`.`)
	if one != 3 {
		t.Errorf("describe honor(X) where %s: %d nodes, want 3", student, one)
	}
	for _, c := range []struct {
		disjuncts []string
		want      int
	}{
		{[]string{student, student}, 2 * one},
		{[]string{student, enroll}, one + other},
		{[]string{enroll, student, student}, other + 2*one},
	} {
		stmt := `describe honor(X) where ` + strings.Join(c.disjuncts, " or ") + `.`
		before := metric()
		if got := nodesOf(stmt); got != c.want {
			t.Errorf("%s: %d nodes, want the disjuncts' %d", stmt, got, c.want)
		}
		if got := metric() - before; got != float64(c.want) {
			t.Errorf("%s: kdb_describe_nodes_total grew by %v, want %d", stmt, got, c.want)
		}
	}
}
