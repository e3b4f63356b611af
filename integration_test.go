package kdb_test

// Integration stress test: a synthetic knowledge base at a scale well
// beyond the paper's examples — a multi-department university with a
// layered rule hierarchy — driven through every query form and both
// durable and in-memory storage.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kdb"
)

// buildLargeKB generates a university with n students, m courses, a
// prerequisite chain per department, and a layered award hierarchy.
func buildLargeKB(n, m int) string {
	r := rand.New(rand.NewSource(42))
	var b strings.Builder
	depts := []string{"math", "cs", "physics", "bio"}
	for i := 0; i < n; i++ {
		gpa := float64(20+r.Intn(21)) / 10 // 2.0 .. 4.0
		fmt.Fprintf(&b, "student(s%03d, %s, %.1f).\n", i, depts[i%len(depts)], gpa)
	}
	for j := 0; j < m; j++ {
		fmt.Fprintf(&b, "course(c%03d, %d).\n", j, 3+j%2)
		if j > 0 {
			fmt.Fprintf(&b, "prereq(c%03d, c%03d).\n", j, j-1)
		}
	}
	for i := 0; i < n*3; i++ {
		fmt.Fprintf(&b, "complete(s%03d, c%03d, f%02d, %.1f).\n",
			r.Intn(n), r.Intn(m), 88+r.Intn(2), float64(20+r.Intn(21))/10)
	}
	for j := 0; j < m; j++ {
		fmt.Fprintf(&b, "teach(p%02d, c%03d).\n", j%7, j)
	}
	b.WriteString(`
honor(X) :- student(X, D, G), G > 3.7.
good_standing(X) :- student(X, D, G), G >= 2.5.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
completed_all(X, C) :- complete(X, C, S, G), G >= 2.
can_ta(X, C) :- honor(X), complete(X, C, S, G), G > 3.3.
senior_award(X) :- honor(X), completed_all(X, C), course(C, 4).
deans_list(X) :- student(X, D, G), G > 3.9.
:- can_ta(X, C), suspended(X).
@key student/3 1.
`)
	return b.String()
}

func TestLargeKBEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	src := buildLargeKB(100, 40)
	k := kdb.New()
	if err := k.LoadString(src); err != nil {
		t.Fatal(err)
	}
	if k.FactCount() < 400 {
		t.Fatalf("FactCount = %d", k.FactCount())
	}
	if v := k.Validate(); len(v) != 0 {
		t.Fatalf("discipline: %v", v)
	}
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil || len(violations) != 0 {
		t.Fatalf("constraints: %v %v", violations, err)
	}

	// The long-chain recursive query reaches the whole chain.
	res, err := k.ExecStringContext(context.Background(), `retrieve prior(c039, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(res.String(), "prior("); got != 39 {
		t.Fatalf("chain closure size = %d, want 39", got)
	}

	// Knowledge queries across the hierarchy.
	queries := []string{
		`describe senior_award(X) where honor(X).`,
		`describe can_ta(X, C) where student(X, math, G) and G > 3.8.`,
		`describe prior(X, Y) where prior(c005, Y).`,
		`describe can_ta(X, C) where not honor(X).`,
		`describe where student(X, D, G) and G < 2.5 and can_ta(X, C).`,
		`describe * where honor(X).`,
		`compare (describe honor(X)) with (describe deans_list(X)).`,
	}
	for _, q := range queries {
		res, err := k.ExecStringContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.String() == "" {
			t.Fatalf("%s: empty rendering", q)
		}
	}

	// Spot-check the semantics of the layered describe.
	res, err = k.ExecStringContext(context.Background(), `describe senior_award(X) where honor(X).`)
	if err != nil {
		t.Fatal(err)
	}
	// The honor conjunct is consumed; completed_all stays at its most
	// general level (the paper's generality principle — no gratuitous
	// unfolding of concepts the hypothesis cannot reach).
	if got := res.String(); got != "senior_award(X) <- completed_all(X, C) and course(C, 4)" {
		t.Errorf("unexpected: %q", got)
	}
}

func TestLargeKBDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	dir := t.TempDir()
	src := buildLargeKB(60, 20)
	k, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString(src); err != nil {
		t.Fatal(err)
	}
	want := k.FactCount()
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More inserts after the checkpoint land in the WAL.
	for i := 0; i < 50; i++ {
		if err := k.Assert(kdb.NewAtom("enroll", kdb.Sym(fmt.Sprintf("s%03d", i)), kdb.Sym("c000"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if got := k2.FactCount(); got != want+50 {
		t.Fatalf("recovered %d facts, want %d", got, want+50)
	}
}

func TestConcurrentQueries(t *testing.T) {
	src := buildLargeKB(50, 15)
	k := kdb.New()
	if err := k.LoadString(src); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`retrieve honor(X).`,
		`retrieve prior(c014, Y).`,
		`describe can_ta(X, C) where honor(X).`,
		`describe prior(X, Y) where prior(c003, Y).`,
		`describe where student(X, D, G) and G < 2.5 and can_ta(X, C).`,
	}
	done := make(chan error, len(queries)*4)
	for g := 0; g < 4; g++ {
		for _, q := range queries {
			go func(q string) {
				_, err := k.ExecStringContext(context.Background(), q)
				done <- err
			}(q)
		}
	}
	for i := 0; i < len(queries)*4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
